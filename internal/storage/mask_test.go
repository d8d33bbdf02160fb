package storage

import (
	"sync"
	"testing"

	"dualsim/internal/bitvec"
	"dualsim/internal/rdf"
)

func maskFixture(t *testing.T) *Store {
	t.Helper()
	return mustStore(t, []rdf.Triple{
		rdf.T("a", "p", "b"),
		rdf.T("a", "p", "c"),
		rdf.T("b", "p", "c"),
		rdf.T("a", "q", "b"),
	})
}

func TestPairAtOrder(t *testing.T) {
	st := maskFixture(t)
	p, _ := st.PredIDOf("p")
	// PSO order: (a,b), (a,c), (b,c) — subjects ascending by intern id.
	s0, o0 := st.PairAt(p, 0)
	if st.Term(s0).Value != "a" || st.Term(o0).Value != "b" {
		t.Fatalf("PairAt(0) = %s,%s", st.Term(s0).Value, st.Term(o0).Value)
	}
	s2, o2 := st.PairAt(p, 2)
	if st.Term(s2).Value != "b" || st.Term(o2).Value != "c" {
		t.Fatalf("PairAt(2) = %s,%s", st.Term(s2).Value, st.Term(o2).Value)
	}
}

func TestFindPair(t *testing.T) {
	st := maskFixture(t)
	p, _ := st.PredIDOf("p")
	count := st.PredCount(p)
	for i := 0; i < count; i++ {
		s, o := st.PairAt(p, i)
		if got := st.FindPair(p, s, o); got != i {
			t.Fatalf("FindPair(PairAt(%d)) = %d", i, got)
		}
	}
	a, _ := st.TermID(rdf.NewIRI("a"))
	if st.FindPair(p, a, a) != -1 {
		t.Fatal("phantom pair found")
	}
}

func TestRestrictByMask(t *testing.T) {
	st := maskFixture(t)
	p, _ := st.PredIDOf("p")
	q, _ := st.PredIDOf("q")

	masks := make([]*bitvec.Vector, st.NumPreds())
	masks[p] = bitvec.New(st.PredCount(p))
	masks[p].Set(1) // keep only (a,p,c)

	sub := st.RestrictByMask(masks)
	if sub.NumTriples() != 1 {
		t.Fatalf("kept = %d, want 1", sub.NumTriples())
	}
	a, _ := sub.TermID(rdf.NewIRI("a"))
	c, _ := sub.TermID(rdf.NewIRI("c"))
	if !sub.HasTriple(a, p, c) {
		t.Fatal("kept triple missing")
	}
	if sub.PredCount(q) != 0 {
		t.Fatal("nil mask should drop the predicate")
	}
	// POS side must be consistent too.
	if got := sub.Subjects(p, c); len(got) != 1 || got[0] != a {
		t.Fatalf("Subjects = %v", got)
	}
	// Stats recomputed.
	if sub.DistinctSubjects(p) != 1 || sub.DistinctObjects(p) != 1 {
		t.Fatal("stats not recomputed")
	}
	// Original untouched.
	if st.NumTriples() != 4 {
		t.Fatal("original mutated")
	}
}

func TestRestrictByMaskEmpty(t *testing.T) {
	st := maskFixture(t)
	sub := st.RestrictByMask(make([]*bitvec.Vector, st.NumPreds()))
	if sub.NumTriples() != 0 {
		t.Fatalf("kept = %d, want 0", sub.NumTriples())
	}
}

// TestMatricesConcurrent: concurrent readers of the adjacency need no
// lock — it is built with the store (run with -race).
func TestMatricesConcurrent(t *testing.T) {
	st := maskFixture(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := 0; p < st.NumPreds(); p++ {
				m := st.Matrices(PredID(p))
				if m.F.Dim() != st.NumNodes() {
					t.Error("bad matrix dimension")
					return
				}
			}
		}()
	}
	wg.Wait()
}
