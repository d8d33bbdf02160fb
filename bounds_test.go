package dualsim_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"dualsim/internal/bitmat"
	"dualsim/internal/bitvec"
	"dualsim/internal/core"
	"dualsim/internal/proptest"
	"dualsim/internal/rdf"
	"dualsim/internal/soi"
	"dualsim/internal/sparql"
	"dualsim/internal/storage"
)

// randomAndOptionalQuery draws AND / OPTIONAL trees over the BGPs of
// randomFilterQuery.
func randomAndOptionalQuery(r *rand.Rand, depth int) sparql.Expr {
	if depth == 0 || r.Intn(3) == 0 {
		return randomFilterQuery(r, 0)
	}
	l, rr := randomAndOptionalQuery(r, depth-1), randomAndOptionalQuery(r, depth-1)
	if r.Intn(2) == 0 {
		return sparql.And{L: l, R: rr}
	}
	return sparql.Optional{L: l, R: rr}
}

// referenceChi solves a branch the way the solver once lowered it: every
// initial bound its own vector, a constant's singleton and the summary
// vectors f_a, b_a cloned and intersected into it.
func referenceChi(st *storage.Store, br *core.Branch) []*bitvec.Vector {
	n := st.NumNodes()
	init := make([]*bitvec.Vector, len(br.Vars))
	for i, v := range br.Vars {
		if v.Const != nil {
			init[i] = bitvec.New(n)
			if id, ok := st.TermID(*v.Const); ok {
				init[i].Set(int(id))
			}
		}
	}
	bound := func(i int, b *bitvec.Vector) {
		if init[i] == nil {
			init[i] = b.Clone()
		} else {
			init[i].And(b)
		}
	}
	mats := make([]bitmat.Pair, len(br.Edges))
	for j, e := range br.Edges {
		mats[j] = bitmat.EmptyPair(n)
		if pid, ok := st.PredIDOf(e.Pred); ok {
			mats[j] = st.Matrices(pid)
		}
		bound(e.From, mats[j].F.NonEmptyRows())
		bound(e.To, mats[j].B.NonEmptyRows())
	}
	sys := soi.NewSystem(n)
	for i, v := range br.Vars {
		x := sys.AddVar(v.Name, v.Mandatory)
		if init[i] != nil {
			sys.ConstrainInit(x, init[i])
		}
	}
	for j, e := range br.Edges {
		sys.AddEdge(soi.Var(e.From), soi.Var(e.To), mats[j], e.Pred)
	}
	for _, c := range br.Copies {
		sys.AddCopy(soi.Var(c[0]), soi.Var(c[1]))
	}
	return sys.Solve(context.Background(), soi.Options{}).Chi
}

// TestPropertySharedBoundsStayReadOnly: a plan's systems keep the store's
// summary vectors as their initial bounds, shared, so no solve may write
// them. Every predicate's NonEmptyRows must read the same after a fresh
// solve, two concurrent solves (-race sees a write) and a restricted
// solve, and each χ must equal the reference that copies every bound.
func TestPropertySharedBoundsStayReadOnly(t *testing.T) {
	ctx := context.Background()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ts := make([]rdf.Triple, 24)
		for i := range ts {
			ts[i] = rdf.T(fmt.Sprintf("n%d", r.Intn(6)), fmt.Sprintf("p%d", r.Intn(3)), fmt.Sprintf("n%d", r.Intn(6)))
		}
		st, err := storage.FromTriples(ts)
		if err != nil {
			t.Fatal(err)
		}
		var summaries, saved []*bitvec.Vector
		for p := 0; p < st.NumPreds(); p++ {
			m := st.Matrices(storage.PredID(p))
			summaries = append(summaries, m.F.NonEmptyRows(), m.B.NonEmptyRows())
			saved = append(saved, m.F.NonEmptyRows().Clone(), m.B.NonEmptyRows().Clone())
		}
		q := &sparql.Query{Expr: randomAndOptionalQuery(r, 2)}
		qp, err := core.BuildQueryPlan(st, q, core.Config{})
		if err != nil {
			t.Fatalf("seed %d: %s: %v", seed, q, err)
		}
		qp.Finalize()
		want := make([][]*bitvec.Vector, len(qp.Branches))
		restrict := make([][]*bitvec.Vector, len(qp.Branches))
		for i, br := range qp.Branches {
			want[i] = referenceChi(st, br)
			for _, chi := range want[i] {
				// A superset of the largest solution leaves it unchanged.
				loose := chi.Clone()
				loose.Set(r.Intn(loose.Len()))
				restrict[i] = append(restrict[i], loose)
			}
		}
		check := func(how string, restrict [][]*bitvec.Vector) bool {
			rel, err := qp.SolveRestricted(ctx, core.Config{}, restrict)
			if err != nil {
				t.Errorf("seed %d %s: %v", seed, how, err)
				return false
			}
			defer rel.Release()
			for i, bs := range rel.Branches {
				for v, chi := range bs.Sol.Chi {
					if !chi.Equal(want[i][v]) {
						t.Logf("seed %d %s %s: branch %d χ(%s) = %v, reference %v", seed, how, q, i, bs.Branch.Vars[v].Name, chi, want[i][v])
						return false
					}
				}
			}
			return true
		}
		ok := check("fresh solve", nil)
		var wg sync.WaitGroup
		results := make([]bool, 2)
		for g := range results {
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[g] = check("concurrent solve", nil)
			}()
		}
		wg.Wait()
		ok = ok && results[0] && results[1] && check("restricted solve", restrict)
		for k, s := range summaries {
			if !s.Equal(saved[k]) {
				t.Logf("seed %d %s: lowering or solving wrote predicate %d's summary: %v, was %v", seed, q, k/2, s, saved[k])
				return false
			}
		}
		return ok
	}
	proptest.Check(t, f, 400, nil)
}
