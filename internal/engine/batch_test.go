package engine_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dualsim/internal/core"
	"dualsim/internal/engine"
	"dualsim/internal/plan"
	"dualsim/internal/proptest"
	"dualsim/internal/prune"
	"dualsim/internal/rdf"
	"dualsim/internal/sparql"
	"dualsim/internal/storage"
)

// TestPropertyBatchBoundaries: where a pull window ends changes nothing
// but the number of pulls. Every plan of the Volcano property generator —
// as planned, with intermediate dedups injected, and under a LIMIT/OFFSET
// window — is drained on the bare store and through its solved dual
// simulation's filter, with windows of 1, 2, 3 and 5 rows and the
// default. Each drain must stream the default's rows in the default's
// order, and report the default's per-operator Rows and Filtered. Under a
// LIMIT only the limit and its input are compared: the limit asks its
// input for no more than it still needs, so their counts are exact, while
// an operator further down may compute up to a window ahead. Every
// execution is drained twice, the second time re-Opened as a kept tree
// is: the second drain must repeat the fresh compile's rows and every
// counter, and leave the first drain's rows untouched.
func TestPropertyBatchBoundaries(t *testing.T) {
	ctx := context.Background()
	type drained struct {
		rows [][]storage.NodeID
		ops  []engine.OperatorStats
	}
	drain := func(st *storage.Store, pl *plan.Plan, window int) (drained, error) {
		defer engine.SetBatchRows(window)()
		ex, err := engine.CompilePlan(st, pl)
		if err != nil {
			return drained{}, err
		}
		fresh, err := engine.Drain(ctx, ex)
		if err != nil {
			return drained{}, err
		}
		kept := make([][]storage.NodeID, len(fresh.Rows))
		for i, row := range fresh.Rows {
			kept[i] = slices.Clone(row)
		}
		ops := ex.Operators()
		again, err := engine.Drain(ctx, ex)
		if err != nil {
			return drained{}, err
		}
		switch {
		case !slices.EqualFunc(again.Rows, fresh.Rows, slices.Equal):
			return drained{}, fmt.Errorf("window %d: re-opened drain streamed %v, fresh %v", window, again.Rows, fresh.Rows)
		case !slices.Equal(ex.Operators(), ops):
			return drained{}, fmt.Errorf("window %d: re-opened operators %+v, fresh %+v", window, ex.Operators(), ops)
		case !slices.EqualFunc(fresh.Rows, kept, slices.Equal):
			return drained{}, fmt.Errorf("window %d: the re-opened drain rewrote the fresh drain's rows", window)
		}
		return drained{fresh.Rows, ops}, nil
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		st, err := storage.FromTriples(engine.RandomTriples(r, 6, 2, 10))
		if err != nil {
			return false
		}
		var expr sparql.Expr
		if r.Intn(2) == 0 {
			expr = engine.RandomQuery(r, 3, 3, 2)
		} else {
			expr = engine.RandomFilteredExpr(r, 3)
		}
		q := &sparql.Query{Expr: expr}
		p, _, err := prune.PruneQueryCtx(ctx, st, q, core.Config{})
		if err != nil {
			t.Logf("seed %d: prune: %v", seed, err)
			return false
		}
		for _, filter := range []storage.Filter{nil, p.Filter()} {
			base := plan.Build(st, q, plan.Options{Filter: filter}).Root
			limited := plan.Limit{Input: base, Limit: 1 + r.Intn(4), Offset: r.Intn(3)}
			for _, root := range []plan.Node{base, engine.DedupUnions(r, base), limited} {
				pl := &plan.Plan{Root: root, Filter: filter}
				want, err := drain(st, pl, 256)
				if err != nil {
					t.Logf("seed %d: %v", seed, err)
					return false
				}
				compared := want.ops
				if _, ok := root.(plan.Limit); ok {
					compared = compared[len(compared)-2:]
				}
				for _, window := range []int{5, 3, 2, 1} {
					got, err := drain(st, pl, window)
					if err != nil {
						t.Logf("seed %d window %d: %v", seed, window, err)
						return false
					}
					if !slices.EqualFunc(got.rows, want.rows, slices.Equal) {
						t.Logf("seed %d query %s (filtered %v) window %d: rows %v, default window %v", seed, q, filter != nil, window, got.rows, want.rows)
						return false
					}
					for i, w := range compared {
						g := got.ops[len(got.ops)-len(compared)+i]
						if g.Rows != w.Rows || g.Filtered != w.Filtered {
							t.Logf("seed %d query %s (filtered %v) window %d: %s %s rows=%d filtered=%d, default window rows=%d filtered=%d",
								seed, q, filter != nil, window, g.Op, g.Detail, g.Rows, g.Filtered, w.Rows, w.Filtered)
							return false
						}
					}
				}
			}
		}
		return true
	}
	proptest.Check(t, f, 1000, nil)
}

// chainStore is 10⁴ disjoint paths a —p→ b —q→ c —r→ d, a quarter of
// them broken at q and a third at r: whichever pattern the planner scans
// first, every row above the scan extends at most once.
func chainStore(t *testing.T) *storage.Store {
	t.Helper()
	var ts []rdf.Triple
	for i := 0; i < 10_000; i++ {
		ts = append(ts, rdf.T(fmt.Sprintf("a%d", i), "p", fmt.Sprintf("b%d", i)))
		if i%4 != 1 {
			ts = append(ts, rdf.T(fmt.Sprintf("b%d", i), "q", fmt.Sprintf("c%d", i)))
		}
		if i%3 != 0 {
			ts = append(ts, rdf.T(fmt.Sprintf("c%d", i), "r", fmt.Sprintf("d%d", i)))
		}
	}
	st, err := storage.FromTriples(ts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestLimitEarlyExit: LIMIT 7 OFFSET 3 over the 10⁴-row chain computes
// exactly what row-at-a-time execution computed. The limit asks its input
// for no more rows than the window still needs, and above the scan no row
// extends twice, so no operator runs ahead. The table is what the
// one-row-per-Next executor reported.
func TestLimitEarlyExit(t *testing.T) {
	st := chainStore(t)
	q := sparql.MustParse(`SELECT * WHERE { ?a <p> ?b . ?b <q> ?c . ?c <r> ?d . } LIMIT 7 OFFSET 3`)
	ex, err := engine.Compile(st, q, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Drain(context.Background(), ex)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 7 {
		t.Fatalf("%d rows, want 7", res.Len())
	}
	want := []string{
		"scan ?c <r> ?d . rows=14",
		"extend ?b <q> ?c . rows=10",
		"extend ?a <p> ?b . rows=10",
		"limit limit 7 offset 3 rows=7",
	}
	var got []string
	for _, op := range ex.Operators() {
		got = append(got, fmt.Sprintf("%s %s rows=%d", op.Op, op.Detail, op.Rows))
	}
	if !slices.Equal(got, want) {
		t.Fatalf("operators %q, want %q", got, want)
	}
}
