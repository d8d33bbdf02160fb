package storage_test

import (
	"bytes"
	"testing"

	"dualsim/internal/datagen"
	"dualsim/internal/storage"
)

// TestDictionaryBytesPerTerm bounds what the dictionary weighs at
// datagen scale (LUBM(5) + KG(2)): at most the term values' bytes plus
// 24 bytes per term, capacities counted — for the built store, for its
// decoded snapshot and for the union of two slices of it.
func TestDictionaryBytesPerTerm(t *testing.T) {
	triples := append(datagen.LUBM(datagen.DefaultLUBM(5, 42)), datagen.KG(datagen.DefaultKG(2, 42))...)
	st, err := storage.FromTriples(triples)
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if err := st.EncodeSnapshot(&body); err != nil {
		t.Fatal(err)
	}
	decoded, err := storage.DecodeSnapshot(body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var left, right []string
	for p := range storage.PredID(st.NumPreds()) {
		if p%2 == 0 {
			left = append(left, st.Pred(p))
		} else {
			right = append(right, st.Pred(p))
		}
	}
	united, err := storage.Union(slice(t, st, left), slice(t, st, right))
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		what string
		st   *storage.Store
	}{{"built", st}, {"decoded", decoded}, {"united", united}} {
		n, values := c.st.NumNodes(), 0
		for id := range storage.NodeID(n) {
			values += len(c.st.Term(id).Value)
		}
		got := storage.DictBytes(c.st)
		t.Logf("%s: %d terms, %d value bytes, dictionary %d bytes (%.1f per term, %.1f over the value bytes)",
			c.what, n, values, got, float64(got)/float64(n), float64(got-values)/float64(n))
		if limit := values + 24*n; got > limit {
			t.Errorf("%s: the dictionary holds %d bytes for %d terms of %d value bytes, over %d", c.what, got, n, values, limit)
		}
	}
}
