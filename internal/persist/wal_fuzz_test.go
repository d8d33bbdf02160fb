package persist

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
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

// fixCRCs rewrites the CRC of every whole frame in body to match its
// payload, so mutated payloads reach the record decoder.
func fixCRCs(body []byte) {
	for off := walHeaderLen; off+walFrameLen <= len(body); {
		n := int(binary.LittleEndian.Uint32(body[off:]))
		if n > len(body)-off-walFrameLen {
			return
		}
		binary.LittleEndian.PutUint32(body[off+4:], crc32.ChecksumIEEE(body[off+walFrameLen:off+walFrameLen+n]))
		off += walFrameLen + n
	}
}

// FuzzReadWAL feeds ReadWAL — the frame reader of recovery and of every
// replica's GET /v1/wal — whole WAL files: arbitrary bytes, and, with
// fix set, bodies whose frames get their CRCs recomputed after the
// mutation. It must never panic; every body it accepts must re-encode
// byte-identically through EncodeWAL, and the same body cut short or
// with its last byte flipped must be refused.
func FuzzReadWAL(f *testing.F) {
	two := EncodeWAL([]Record{walApply, {Kind: RecordCompact, Epoch: 4}})
	f.Add(two, false)
	f.Add(two[:walHeaderLen], false)
	f.Add(two[:walHeaderLen+3], false) // a partial frame header
	f.Add(two[:len(two)-3], false)     // a partial payload
	// Frames behind a valid CRC: an empty payload, an unknown object kind.
	f.Add(append(EncodeWAL(nil), make([]byte, walFrameLen)...), true)
	kind7 := append(EncodeWAL(nil), make([]byte, walFrameLen)...)
	kind7 = append(kind7, withObjectKind(7)...)
	binary.LittleEndian.PutUint32(kind7[walHeaderLen:], uint32(len(kind7)-walHeaderLen-walFrameLen))
	f.Add(kind7, true)

	f.Fuzz(func(t *testing.T, body []byte, fix bool) {
		if fix {
			fixCRCs(body)
		}
		recs, goodLen, err := ReadWAL(bytes.NewReader(body))
		if goodLen > int64(len(body)) {
			t.Fatalf("goodLen %d beyond the %d-byte body", goodLen, len(body))
		}
		if err != nil {
			return
		}
		if got := EncodeWAL(recs); !bytes.Equal(got, body) || goodLen != int64(len(body)) {
			t.Fatalf("body %x reads as %d records (goodLen %d) that re-encode to %x", body, len(recs), goodLen, EncodeWAL(recs))
		}
		if _, _, err := ReadWAL(bytes.NewReader(body[:len(body)-1])); err == nil {
			t.Fatalf("body %x cut by one byte was accepted", body)
		}
		flipped := bytes.Clone(body)
		flipped[len(flipped)-1] ^= 1
		if _, _, err := ReadWAL(bytes.NewReader(flipped)); err == nil {
			t.Fatalf("body %x with its last byte flipped was accepted", body)
		}
	})
}
