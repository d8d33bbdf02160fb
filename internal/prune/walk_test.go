package prune

import (
	"context"
	"math/rand"
	"testing"

	"dualsim/internal/bitmat"
	"dualsim/internal/bitvec"
	"dualsim/internal/proptest"
	"dualsim/internal/storage"
)

// scanEdge is the reference the χ-driven walk replaced: test every pair
// of the predicate.
func scanEdge(st *storage.Store, pid storage.PredID, chiS, chiO, mask *bitvec.Vector) {
	subjects, objects := st.PSO(pid)
	for i, s := range subjects {
		if chiS.Get(int(s)) && chiO.Get(int(objects[i])) {
			mask.Set(i)
		}
	}
}

// TestPropertyWalkMatchesScan: the χ-driven walk sets exactly the mask
// bits a full scan sets and tests no pair whose subject is not a
// candidate — for χS(v) empty, full, sparse, and holding nodes that are
// no subject of the predicate.
func TestPropertyWalkMatchesScan(t *testing.T) {
	ctx := context.Background()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nodes := r.Intn(60) + 2
		st, err := storage.FromTriples(randomTriples(r, nodes, 3, r.Intn(6*nodes)+1))
		if err != nil {
			t.Log(err)
			return false
		}
		n := st.NumNodes()
		draw := func() *bitvec.Vector {
			v := bitvec.New(n)
			switch r.Intn(4) {
			case 0: // empty
			case 1:
				v.Fill()
			case 2: // a few nodes, subjects of the predicate or not
				for k := r.Intn(4) + 1; k > 0; k-- {
					v.Set(r.Intn(n))
				}
			default:
				for i := 0; i < n; i++ {
					if r.Intn(2) == 0 {
						v.Set(i)
					}
				}
			}
			return v
		}
		for p := 0; p < st.NumPreds(); p++ {
			pid := storage.PredID(p)
			chiS, chiO := draw(), draw()
			got, want := bitvec.New(st.PredCount(pid)), bitvec.New(st.PredCount(pid))
			subjects, objects := st.PSO(pid)
			visited, err := markEdge(ctx, st.Matrices(pid).F, objects, chiS, chiO, got)
			scanEdge(st, pid, chiS, chiO, want)
			candidatePairs := 0
			for _, s := range subjects {
				if chiS.Get(int(s)) {
					candidatePairs++
				}
			}
			if err != nil || !got.Equal(want) || visited != candidatePairs {
				t.Logf("seed %d pred %d: err %v, mask %v want %v, visited %d want %d", seed, p, err, got, want, visited, candidatePairs)
				return false
			}
		}
		return true
	}
	proptest.Check(t, f, 400, regressionSeeds)
}

// TestWalkHonoursCancellation: an expired context stops the walk at its
// next check and surfaces as PruneCtx's error.
func TestWalkHonoursCancellation(t *testing.T) {
	n := 2 * subjectCheckInterval
	subjects, objects := make([]storage.NodeID, n), make([]storage.NodeID, n)
	for i := range subjects {
		subjects[i] = storage.NodeID(i)
	}
	f := bitmat.NewCSR(n, subjects, objects)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	visited, err := markEdge(ctx, f, objects, bitvec.NewFull(n), bitvec.NewFull(n), bitvec.New(n))
	if err != context.Canceled || visited >= n {
		t.Fatalf("visited %d of %d, err %v; want an early context.Canceled", visited, n, err)
	}
}
