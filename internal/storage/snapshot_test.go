package storage

import (
	"bytes"
	"encoding/binary"
	"strconv"
	"strings"
	"testing"

	"dualsim/internal/rdf"
)

func TestSnapshotCodecRoundTrip(t *testing.T) {
	st, err := FromTriples([]rdf.Triple{
		rdf.T("a", "p", "b"),
		rdf.T("b", "p", "c"),
		rdf.T("a", "q", "c"),
		rdf.TL("a", "label", "alpha"),
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.EncodeSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.NumTriples() != st.NumTriples() || got.NumNodes() != st.NumNodes() || got.NumPreds() != st.NumPreds() {
		t.Fatalf("shape: %d/%d/%d vs %d/%d/%d",
			got.NumTriples(), got.NumNodes(), got.NumPreds(),
			st.NumTriples(), st.NumNodes(), st.NumPreds())
	}
	// Both index orders answer after the roundtrip.
	a, _ := got.TermID(rdf.NewIRI("a"))
	p, _ := got.PredIDOf("p")
	c, _ := got.TermID(rdf.NewIRI("c"))
	if objs := got.Objects(p, a); len(objs) != 1 {
		t.Fatalf("Objects(p, a) = %v", objs)
	}
	if subs := got.Subjects(p, c); len(subs) != 1 {
		t.Fatalf("Subjects(p, c) = %v", subs)
	}
	// Literal terms keep their kind (a "b"-IRI and a "b"-literal differ).
	if id, ok := got.TermID(rdf.NewLiteral("alpha")); !ok {
		t.Fatal("literal term lost")
	} else if !got.Term(id).IsLiteral() {
		t.Fatal("literal decoded as IRI")
	}
}

func TestSnapshotCodecEmptyStore(t *testing.T) {
	st := mustStore(t, nil)
	var buf bytes.Buffer
	if err := st.EncodeSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.NumTriples() != 0 || got.NumNodes() != 0 || got.NumPreds() != 0 {
		t.Fatalf("empty roundtrip: %d/%d/%d", got.NumTriples(), got.NumNodes(), got.NumPreds())
	}
}

func TestSnapshotCodecRejectsGarbage(t *testing.T) {
	st, err := FromTriples([]rdf.Triple{rdf.T("a", "p", "b"), rdf.T("b", "p", "c")})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.EncodeSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// Truncations anywhere must error, never panic or mis-decode.
	raw := buf.Bytes()
	for cut := 0; cut < len(raw); cut++ {
		if _, err := DecodeSnapshot(raw[:cut]); err == nil {
			// A prefix that happens to decode fully is only legal if it is
			// the complete body.
			t.Fatalf("truncation at %d of %d decoded without error", cut, len(raw))
		}
	}
}

// TestSnapshotCodecRejectsDuplicates: a dictionary listing one term or
// one predicate twice would make id lookups ambiguous (and a Union of
// such a slice would map two ids to one); the decoder refuses it.
func TestSnapshotCodecRejectsDuplicates(t *testing.T) {
	for _, body := range [][]byte{
		{2, 0, 1, 'a', 0, 1, 'a', 0}, // IRI "a" twice, no predicates
		{0, 2, 1, 'p', 1, 'p', 0, 0}, // predicate "p" twice, empty runs
	} {
		if _, err := DecodeSnapshot(body); err == nil || !strings.Contains(err.Error(), "twice") {
			t.Fatalf("body %v: err %v, want a duplicate rejected", body, err)
		}
	}
}

// TestSnapshotCodecAcceptsEmptyAndSharedValues: a term whose value is
// empty decodes, and an IRI and a literal of one value are two terms
// with distinct ids — the bodies FuzzDecodeSnapshot's corpus seeds with.
func TestSnapshotCodecAcceptsEmptyAndSharedValues(t *testing.T) {
	for _, c := range []struct {
		body  []byte
		terms []rdf.Term
	}{
		{[]byte{2, 0, 1, 'a', 1, 0, 0}, []rdf.Term{rdf.NewIRI("a"), rdf.NewLiteral("")}},
		{[]byte{2, 0, 1, 'a', 1, 1, 'a', 0}, []rdf.Term{rdf.NewIRI("a"), rdf.NewLiteral("a")}},
	} {
		st, err := DecodeSnapshot(c.body)
		if err != nil {
			t.Fatalf("body %v: %v", c.body, err)
		}
		for want, term := range c.terms {
			if id, ok := st.TermID(term); !ok || id != NodeID(want) || st.Term(id) != term {
				t.Fatalf("body %v: %v looks up as %d (%v), want %d", c.body, term, id, ok, want)
			}
		}
	}
}

// TestSnapshotDirectoryBudget: every non-empty predicate builds row
// directories sized by the whole universe, so a body of many one-pair
// predicates over many terms would cost memory quadratic in its length.
// The decoder refuses it before building them; a body under the budget
// decodes.
func TestSnapshotDirectoryBudget(t *testing.T) {
	body := func(terms, preds int) []byte {
		b := binary.AppendUvarint(nil, uint64(terms))
		for i := 0; i < terms; i++ {
			v := strconv.Itoa(i)
			b = append(binary.AppendUvarint(append(b, byte(rdf.IRI)), uint64(len(v))), v...)
		}
		b = binary.AppendUvarint(b, uint64(preds))
		for i := 0; i < preds; i++ {
			v := strconv.Itoa(i)
			b = append(binary.AppendUvarint(b, uint64(len(v))), v...)
		}
		for i := 0; i < preds; i++ {
			b = append(b, 1, 0, 0) // one pair: (term 0, term 0)
		}
		return b
	}
	huge := body(100_000, 3_000)
	if _, err := DecodeSnapshot(huge); err == nil || !strings.Contains(err.Error(), "row directories") {
		t.Fatalf("%d-byte body over 3000 predicates: err %v, want the directory budget", len(huge), err)
	}
	st, err := DecodeSnapshot(body(100_000, 30))
	if err != nil || st.NumTriples() != 30 {
		t.Fatalf("a body under the budget: err %v", err)
	}
}
