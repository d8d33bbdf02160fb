package storage_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"dualsim/internal/persist"
	"dualsim/internal/rdf"
	"dualsim/internal/storage"
)

// seal recomputes a container's trailing CRC, so a mutated body gets
// past the checksum and reaches the body decoder.
func seal(c []byte) []byte {
	out := bytes.Clone(c)
	if len(out) >= 12 {
		binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.ChecksumIEEE(out[8:len(out)-4]))
	}
	return out
}

// FuzzDecodeSnapshot feeds persist.DecodeSnapshot — the decoder every
// replica bootstrap and every gathered query runs on bytes from the
// network — whole containers, once as given and once with the CRC
// recomputed. It must never panic, and a store it accepts must hold the
// index invariants and a dictionary whose lookups invert Term.
func FuzzDecodeSnapshot(f *testing.F) {
	st, err := storage.FromTriples([]rdf.Triple{
		rdf.T("a", "p", "b"), rdf.T("b", "p", "c"), rdf.T("a", "q", "c"),
		rdf.TL("a", "label", `say "hi"`), rdf.TL("c", "label", "bad\xffutf8"),
		rdf.T("c", "unused", "d"),
	})
	if err != nil {
		f.Fatal(err)
	}
	var preds []storage.PredID
	for _, p := range []string{"p", "label", "q"} {
		id, _ := st.PredIDOf(p)
		preds = append(preds, id)
	}
	var buf bytes.Buffer
	if err := persist.EncodeSliceTo(&buf, st, preds, 7); err != nil {
		f.Fatal(err)
	}
	whole := buf.Bytes()
	f.Add(whole)
	for _, cut := range []int{0, 8, 20, len(whole) / 2, len(whole) - 5, len(whole) - 1} {
		f.Add(seal(whole[:cut]))
	}
	for _, bit := range []int{8 * 8, 20 * 8, 21*8 + 3, 30*8 + 7, (len(whole) - 6) * 8} {
		flipped := bytes.Clone(whole)
		flipped[bit/8] ^= 1 << (bit % 8)
		f.Add(flipped)
		f.Add(seal(flipped))
	}
	huge := binary.AppendUvarint(nil, 1<<40)
	for _, body := range [][]byte{
		huge,                          // term count
		append([]byte{0}, huge...),    // predicate count
		{0, 1, 1, 'p', 0xff, 0xff, 3}, // pair count past the body
		{2, 0, 1, 'a', 0, 1, 'a', 0},  // one term listed twice
	} {
		c := append([]byte("DSIMSNP1"), 1, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0)
		f.Add(seal(append(append(c, body...), 0, 0, 0, 0)))
	}

	f.Fuzz(func(t *testing.T, c []byte) {
		for _, in := range [][]byte{c, seal(c)} {
			st, _, err := persist.DecodeSnapshot(in)
			if err != nil {
				continue
			}
			if err := storage.IndexInvariants(st); err != nil {
				t.Fatalf("decoded store breaks the index invariants: %v", err)
			}
			for id := 0; id < st.NumNodes(); id++ {
				if got, ok := st.TermID(st.Term(storage.NodeID(id))); !ok || got != storage.NodeID(id) {
					t.Fatalf("term %d decodes to %v, which looks up as %d (%v)", id, st.Term(storage.NodeID(id)), got, ok)
				}
			}
			for p := 0; p < st.NumPreds(); p++ {
				if got, ok := st.PredIDOf(st.Pred(storage.PredID(p))); !ok || got != storage.PredID(p) {
					t.Fatalf("predicate %d looks up as %d (%v)", p, got, ok)
				}
			}
		}
	})
}
