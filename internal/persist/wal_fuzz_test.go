package persist

import (
	"bytes"
	"strings"
	"testing"

	"dualsim/internal/rdf"
)

// walApply is an apply record with one literal and one IRI object.
var walApply = Record{
	Kind:  RecordApply,
	Epoch: 3,
	Adds:  []rdf.Triple{rdf.TL("s", "label", `say "hi"`), rdf.T("s", "p", "o")},
	Dels:  []rdf.Triple{rdf.T("a", "p", "b")},
}

// withObjectKind returns the payload of an apply record adding <a> <p>
// <b>, its object kind byte replaced by k.
func withObjectKind(k byte) []byte {
	payload := encodeRecord(nil, Record{Kind: RecordApply, Epoch: 1, Adds: []rdf.Triple{rdf.T("a", "p", "b")}})
	// kind, epoch, add count, "a", "p", then the object kind byte.
	payload[9+1+2+2] = k
	return payload
}

// TestWALRejectsUnknownObjectKind: an object kind byte other than IRI
// or literal is corruption, not an IRI.
func TestWALRejectsUnknownObjectKind(t *testing.T) {
	for _, k := range []byte{byte(rdf.IRI), byte(rdf.Literal)} {
		if _, err := decodeRecord(withObjectKind(k)); err != nil {
			t.Fatalf("kind %d: %v", k, err)
		}
	}
	if r, err := decodeRecord(withObjectKind(7)); err == nil || !strings.Contains(err.Error(), "unknown object kind 7") {
		t.Fatalf("kind 7 decoded to %v (err %v), want it rejected", r.Adds, err)
	}
}

// FuzzDecodeWALRecord feeds decodeRecord — the decoder crash recovery
// and every replica's catch-up run — arbitrary payloads. It must never
// panic, and every payload it accepts must re-encode byte-identically
// through encodeRecord: one record, one spelling.
func FuzzDecodeWALRecord(f *testing.F) {
	apply := encodeRecord(nil, walApply)
	f.Add(apply)
	f.Add(encodeRecord(nil, Record{Kind: RecordCompact, Epoch: 4}))
	f.Add(apply[:len(apply)-2]) // a truncated string
	f.Add(withObjectKind(7))

	f.Fuzz(func(t *testing.T, payload []byte) {
		r, err := decodeRecord(payload)
		if err != nil {
			return
		}
		if got := encodeRecord(nil, r); !bytes.Equal(got, payload) {
			t.Fatalf("payload %x decodes to %+v, which re-encodes to %x", payload, r, got)
		}
	})
}
