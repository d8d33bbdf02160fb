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

// TestPairAtOrder: position i of a predicate's PSO columns is its i-th
// pair in (subject, object) order.
func TestPairAtOrder(t *testing.T) {
	st := maskFixture(t)
	p, _ := st.PredIDOf("p")
	// PSO order: (a,b), (a,c), (b,c) — subjects ascending by intern id.
	subjects, objects := st.PSO(p)
	if len(subjects) != 3 || len(objects) != 3 {
		t.Fatalf("PSO columns hold %d and %d ids, want 3", len(subjects), len(objects))
	}
	if st.Term(subjects[0]).Value != "a" || st.Term(objects[0]).Value != "b" {
		t.Fatalf("pair 0 = %s,%s", st.Term(subjects[0]).Value, st.Term(objects[0]).Value)
	}
	if st.Term(subjects[2]).Value != "b" || st.Term(objects[2]).Value != "c" {
		t.Fatalf("pair 2 = %s,%s", st.Term(subjects[2]).Value, st.Term(objects[2]).Value)
	}
}

func TestFindPair(t *testing.T) {
	st := maskFixture(t)
	p, _ := st.PredIDOf("p")
	subjects, objects := st.PSO(p)
	for i, s := range subjects {
		if got := st.FindPair(p, s, objects[i]); got != i {
			t.Fatalf("FindPair of PSO pair %d = %d", i, got)
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
