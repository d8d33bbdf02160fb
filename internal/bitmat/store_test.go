package bitmat_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dualsim/internal/bitmat"
	"dualsim/internal/bitvec"
	"dualsim/internal/rdf"
	"dualsim/internal/storage"
)

// randomStore draws a store of e random edges of one predicate "p" over
// about n nodes, so the matrices under test are a store's own index.
func randomStore(t *testing.T, r *rand.Rand, n, e int) (*storage.Store, storage.PredID) {
	t.Helper()
	ts := make([]rdf.Triple, e)
	for i := range ts {
		ts[i] = rdf.T(fmt.Sprintf("n%d", r.Intn(n)), "p", fmt.Sprintf("n%d", r.Intn(n)))
	}
	st, err := storage.FromTriples(ts)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := st.PredIDOf("p")
	return st, p
}

// TestTranspose: a store's B is the transpose of its F — every cell (i, j)
// of F is the cell (j, i) of B and both hold the same number — although
// the two are built from different runs, the PSO and the POS order.
func TestTranspose(t *testing.T) {
	st, p := randomStore(t, rand.New(rand.NewSource(3)), 300, 2000)
	m := st.Matrices(p)
	if m.F.NNZ() != m.B.NNZ() || m.F.NNZ() != st.PredCount(p) {
		t.Fatalf("F holds %d cells, B %d, the predicate %d", m.F.NNZ(), m.B.NNZ(), st.PredCount(p))
	}
	for i := 0; i < st.NumNodes(); i++ {
		for _, j := range m.F.Row(i) {
			if _, found := slices.BinarySearch(m.B.Row(int(j)), uint32(i)); !found {
				t.Fatalf("cell (%d,%d) missing in the transpose", i, j)
			}
		}
	}
}

func randomVec(r *rand.Rand, n int) *bitvec.Vector {
	v := bitvec.New(n)
	for i := 0; i < n; i++ {
		if r.Intn(3) == 0 {
			v.Set(i)
		}
	}
	return v
}

// TestMultiplyAllocs: Multiply runs its kernel straight into dst and
// allocates nothing, whichever strategy it resolves to; reading a
// store's adjacency — Store.Matrices, then rows of F and B — allocates
// nothing either.
func TestMultiplyAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	st, pid := randomStore(t, r, 1<<14, 1<<16)
	p, n := st.Matrices(pid), st.NumNodes()
	x, cand, dst := randomVec(r, n), randomVec(r, n), bitvec.New(n)
	for _, s := range []bitmat.Strategy{bitmat.RowWise, bitmat.ColWise} {
		if allocs := testing.AllocsPerRun(50, func() { p.Multiply(bitmat.Forward, x, cand, dst, s) }); allocs > 0 {
			t.Errorf("strategy %v: %.1f allocs/op, want 0", s, allocs)
		}
	}
	cells := 0
	allocs := testing.AllocsPerRun(50, func() {
		m := st.Matrices(pid)
		for i := 0; i < n; i += 7 {
			cells += len(m.F.Row(i)) + len(m.B.Row(i))
		}
	})
	if allocs > 0 || cells == 0 {
		t.Errorf("Matrices + Row: %.1f allocs/op over %d cells, want 0", allocs, cells)
	}
}
