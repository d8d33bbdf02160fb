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
// window — and the plan of each text in layouts (row layouts the
// generator reaches only by chance) is drained on the bare store and
// through its solved dual simulation's filter, with windows of 1, 2, 3
// and 5 rows and the default. Each drain must stream the default's rows in the default's
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
		kept := engine.RowsOf(fresh)
		ops := ex.Operators()
		again, err := engine.Drain(ctx, ex)
		if err != nil {
			return drained{}, err
		}
		switch {
		case !slices.EqualFunc(engine.RowsOf(again), kept, slices.Equal):
			return drained{}, fmt.Errorf("window %d: re-opened drain streamed %v, fresh %v", window, engine.RowsOf(again), kept)
		case !slices.Equal(ex.Operators(), ops):
			return drained{}, fmt.Errorf("window %d: re-opened operators %+v, fresh %+v", window, ex.Operators(), ops)
		case !slices.EqualFunc(engine.RowsOf(fresh), kept, slices.Equal):
			return drained{}, fmt.Errorf("window %d: the re-opened drain rewrote the fresh drain's rows", window)
		}
		return drained{kept, ops}, nil
	}
	// check drains pl at the default window and at 5, 3, 2 and 1 rows.
	check := func(seed int64, st *storage.Store, q *sparql.Query, pl *plan.Plan) bool {
		want, err := drain(st, pl, 256)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		compared := want.ops
		if _, ok := pl.Root.(plan.Limit); ok {
			compared = compared[len(compared)-2:]
		}
		for _, window := range []int{5, 3, 2, 1} {
			got, err := drain(st, pl, window)
			if err != nil {
				t.Logf("seed %d window %d: %v", seed, window, err)
				return false
			}
			if !slices.EqualFunc(got.rows, want.rows, slices.Equal) {
				t.Logf("seed %d query %s (filtered %v) window %d: rows %v, default window %v", seed, q, pl.Filter != nil, window, got.rows, want.rows)
				return false
			}
			for i, w := range compared {
				g := got.ops[len(got.ops)-len(compared)+i]
				if g.Rows != w.Rows || g.Filtered != w.Filtered {
					t.Logf("seed %d query %s (filtered %v) window %d: %s %s rows=%d filtered=%d, default window rows=%d filtered=%d",
						seed, q, pl.Filter != nil, window, g.Op, g.Detail, g.Rows, g.Filtered, w.Rows, w.Filtered)
					return false
				}
			}
		}
		return true
	}
	// Row layouts the generator reaches only by chance, each pinned by a
	// text over its vocabulary (n0…n5, p0, p1): zero-width rows (the unit
	// row, an all-constant BGP, and one under a join and a union); union
	// branches of different widths, whose rows are widened in place —
	// narrower left, narrower right, and a right side whose columns
	// interleave the left's; OPTIONAL padding by an extendleft and by a
	// leftjoin; hash joins whose build or probe rows leave a shared
	// variable unbound (wildcards, and the scan-all probe); LIMIT/OFFSET
	// over an input that repeats rows.
	layouts := []string{
		`SELECT * WHERE { }`,
		`SELECT * WHERE { <n0> <p0> <n1> . <n1> <p1> <n2> . }`,
		`SELECT * WHERE { <n1> <p1> <n2> . OPTIONAL { ?a <p0> ?b . } }`,
		`SELECT * WHERE { { <n0> <p0> <n1> . } UNION { ?a <p0> ?b . } }`,
		`SELECT * WHERE { { ?a <p0> ?b . } UNION { ?a <p1> ?b . ?b <p0> ?c . } }`,
		`SELECT * WHERE { { ?a <p0> ?b . ?b <p1> ?c . } UNION { ?c <p1> ?d . } }`,
		`SELECT * WHERE { { ?b <p0> ?a . } UNION { ?c <p1> ?a . ?a <p0> ?b . } }`,
		`SELECT * WHERE { ?a <p0> ?b . OPTIONAL { ?b <p1> ?c . } }`,
		`SELECT * WHERE { ?a <p0> ?b . OPTIONAL { ?b <p1> ?c . ?c <p0> ?d . } }`,
		`SELECT * WHERE { { ?a <p1> ?b . } { ?c <p0> ?d . OPTIONAL { ?d <p1> ?b . } } }`,
		`SELECT * WHERE { { ?c <p0> ?d . OPTIONAL { ?d <p1> ?b . } } { ?a <p1> ?b . ?b <p0> ?e . } }`,
		`SELECT * WHERE { { ?a <p0> ?b . } UNION { ?a <p1> ?b . } } LIMIT 3 OFFSET 1`,
		`SELECT * WHERE { { ?a <p0> ?b . } UNION { ?b <p0> ?a . } UNION { ?a <p0> ?c . } } LIMIT 4 OFFSET 2`,
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
				if !check(seed, st, q, &plan.Plan{Root: root, Filter: filter}) {
					return false
				}
			}
		}
		for _, src := range layouts {
			q := sparql.MustParse(src)
			p, _, err := prune.PruneQueryCtx(ctx, st, q, core.Config{})
			if err != nil {
				t.Logf("seed %d %s: prune: %v", seed, src, err)
				return false
			}
			for _, filter := range []storage.Filter{nil, p.Filter()} {
				if !check(seed, st, q, plan.Build(st, q, plan.Options{Filter: filter})) {
					return false
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
