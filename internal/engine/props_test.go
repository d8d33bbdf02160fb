package engine

import (
	"context"
	"math/rand"
	"testing"

	"dualsim/internal/plan"
	"dualsim/internal/proptest"
	"dualsim/internal/rdf"
	"dualsim/internal/sparql"
	"dualsim/internal/storage"
)

// isSet reports whether res holds no mapping twice.
func isSet(res *Result) bool {
	c := &Result{Vars: res.Vars, Rows: append([][]storage.NodeID(nil), res.Rows...)}
	c.Dedup()
	return c.Len() == res.Len()
}

// limitOf returns the execution's root limit operator.
func limitOf(t *testing.T, ex *Exec) *limitIter {
	t.Helper()
	li, ok := ex.its[len(ex.its)-1].in.(*limitIter)
	if !ok {
		t.Fatalf("root operator is %T, not a limit", ex.its[len(ex.its)-1].in)
	}
	return li
}

// TestSetAnalysis pins the plan-shape → deduplication decision: a
// distinct root (or a limit's seen-set) appears exactly where the rows
// may repeat — under a UNION, or where a join variable may be unbound
// on one side, the non-well-designed {A OPTIONAL B} . C shapes.
func TestSetAnalysis(t *testing.T) {
	st := mustStore(t, []rdf.Triple{
		rdf.T("a", "p", "b"), rdf.T("a", "p", "c"), rdf.T("d", "p", "b"),
		rdf.T("b", "q", "e"), rdf.T("c", "q", "e"), rdf.T("c", "q", "f"),
		rdf.T("e", "r", "g"), rdf.T("f", "r", "g"), rdf.T("e", "r", "a"),
		rdf.T("g", "p", "a"),
	})
	cases := []struct {
		name, query string
		dedup       bool // distinct root, or — with LIMIT — a seen-set in the root limit
	}{
		{"empty BGP", `SELECT * WHERE { }`, false},
		{"one pattern", `SELECT * WHERE { ?x <p> ?y }`, false},
		{"self-loop pattern", `SELECT * WHERE { ?x <p> ?x }`, false},
		{"three-pattern BGP", `SELECT * WHERE { ?x <p> ?y . ?y <q> ?z . ?z <r> ?w }`, false},
		{"cartesian hash join", `SELECT * WHERE { { ?x <p> ?y } { ?z <q> ?w . ?w <r> ?u } }`, false},
		{"filter over a BGP", `SELECT * WHERE { ?x <p> ?y . ?y <q> ?z . FILTER(?z != <e>) }`, false},
		{"well-designed OPTIONAL scan", `SELECT * WHERE { ?x <p> ?y OPTIONAL { ?y <q> ?z } }`, false},
		{"well-designed OPTIONAL group", `SELECT * WHERE { ?x <p> ?y OPTIONAL { ?y <q> ?z . ?z <r> ?w } }`, false},
		{"nested OPTIONAL on a certain variable", `SELECT * WHERE { { ?x <p> ?y OPTIONAL { ?y <q> ?z } } OPTIONAL { ?y <r> ?w } }`, false},
		{"UNION", `SELECT * WHERE { { ?x <p> ?y } UNION { ?x <q> ?y } }`, true},
		{"join above a UNION", `SELECT * WHERE { { { ?x <p> ?y } UNION { ?x <q> ?y } } { ?y <q> ?z } }`, true},
		{"{A OPT B} . scan on B's variable", `SELECT * WHERE { { { ?x <p> ?y } OPTIONAL { ?y <q> ?z } } { ?z <r> ?w } }`, true},
		{"{A OPT B} . group on B's variable", `SELECT * WHERE { { { ?x <p> ?y } OPTIONAL { ?y <q> ?z } } { ?z <r> ?w . ?w <p> ?u } }`, true},
		{"{A OPT B} OPT C on B's variable", `SELECT * WHERE { { { ?x <p> ?y } OPTIONAL { ?y <q> ?z } } OPTIONAL { ?z <r> ?w } }`, true},
		{"C . {A OPT B}: unbound on the right side", `SELECT * WHERE { { ?z <r> ?w . ?w <p> ?u } { { ?x <p> ?y } OPTIONAL { ?y <q> ?z } } }`, true},
		{"LIMIT over a BGP counts", `SELECT * WHERE { ?x <p> ?y . ?y <q> ?z } LIMIT 2`, false},
		{"LIMIT over a UNION keeps a seen-set", `SELECT * WHERE { { ?x <p> ?y } UNION { ?x <q> ?y } } LIMIT 2 OFFSET 1`, true},
		{"LIMIT over a possibly-unbound join", `SELECT * WHERE { { { ?x <p> ?y } OPTIONAL { ?y <q> ?z } } { ?z <r> ?w } } LIMIT 3`, true},
	}
	ctx := context.Background()
	for _, c := range cases {
		q := sparql.MustParse(c.query)
		ex, err := Compile(st, q, plan.Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		ops := ex.Operators()
		root := ops[len(ops)-1]
		if root.Depth != 0 {
			t.Errorf("%s: root %s compiled at depth %d", c.name, root.Op, root.Depth)
		}
		if q.Limit > 0 {
			if li := limitOf(t, ex); li.dedup != c.dedup {
				t.Errorf("%s: limit seen-set = %v, want %v", c.name, li.dedup, c.dedup)
			}
		} else if got := root.Op == "distinct"; got != c.dedup {
			t.Errorf("%s: distinct root = %v, want %v (root %s)", c.name, got, c.dedup, root.Op)
		}
		// Whatever was decided, the answer is the reference's, as a set.
		got, err := Drain(ctx, ex)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !isSet(got) {
			t.Errorf("%s: result of %d rows holds duplicates", c.name, got.Len())
		}
		full, err := NewReference().Evaluate(ctx, st, &sparql.Query{Expr: q.Expr})
		if err != nil {
			t.Fatalf("%s: reference: %v", c.name, err)
		}
		if q.Limit > 0 {
			if err := checkWindow(got, full, q.Limit, q.Offset); err != nil {
				t.Errorf("%s: %v", c.name, err)
			}
		} else if !got.Equal(full) {
			t.Errorf("%s: %d rows, reference %d", c.name, got.Len(), full.Len())
		}
		// A plan with neither a seen-set nor a hash join buffers nothing.
		buffers := c.dedup
		for _, op := range ops {
			buffers = buffers || op.Op == "hashjoin" || op.Op == "leftjoin"
		}
		if peak := ex.Resources().PeakBytes; !buffers && peak != 0 {
			t.Errorf("%s: streaming plan buffered %d bytes", c.name, peak)
		}
	}
}

// dedupUnions rewrites a plan tree, wrapping about half of its UNION
// nodes in an unlimited Limit — under set semantics a pure intermediate
// dedup, so the answer is unchanged. Today's planner puts a Limit only at
// the root and on UNION branches; this puts a set-producing node over
// possibly-unbound columns *below* joins, which is where joinProps'
// shared-variable condition is the only thing between the plan and a
// duplicate: Limit(A ∪ B) may hold (x=1, v=⊥) and (x=1, v=2), and both
// join (v=2) to (1, 2).
func dedupUnions(r *rand.Rand, n plan.Node) plan.Node {
	switch x := n.(type) {
	case plan.Join:
		return plan.Join{L: dedupUnions(r, x.L), R: dedupUnions(r, x.R)}
	case plan.LeftJoin:
		return plan.LeftJoin{L: dedupUnions(r, x.L), R: dedupUnions(r, x.R)}
	case plan.Filter:
		return plan.Filter{Input: dedupUnions(r, x.Input), Cond: x.Cond}
	case plan.Limit:
		return plan.Limit{Input: dedupUnions(r, x.Input), Limit: x.Limit, Offset: x.Offset}
	case plan.Union:
		u := plan.Union{L: dedupUnions(r, x.L), R: dedupUnions(r, x.R)}
		if r.Intn(2) == 0 {
			return plan.Limit{Input: u}
		}
		return u
	}
	return n
}

// TestPropertyVolcanoResultsAreSets: on random AND/OPTIONAL/UNION/FILTER
// queries — planned as is, and again with intermediate dedups injected
// (dedupUnions) — the drained executor result is already a set
// (Result.Dedup removes nothing) and equals the reference. Equal alone
// would not see a missing distinct, it canonicalizes both sides; this
// does, and it fails when the shared-variable condition is dropped from
// joinProps.
func TestPropertyVolcanoResultsAreSets(t *testing.T) {
	ctx := context.Background()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		st, err := storage.FromTriples(randomTriples(r, 6, 2, 10))
		if err != nil {
			return false
		}
		var expr sparql.Expr
		if r.Intn(2) == 0 {
			expr = randomQuery(r, 3, 3, 2)
		} else {
			expr = randomFilteredExpr(r, 3)
		}
		q := &sparql.Query{Expr: expr}
		want, err := NewReference().Evaluate(ctx, st, q)
		if err != nil {
			return false
		}
		pl := plan.Build(st, q, plan.Options{})
		for _, root := range []plan.Node{pl.Root, dedupUnions(r, pl.Root)} {
			ex, err := compilePlan(st, &plan.Plan{Root: root})
			if err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			got, err := Drain(ctx, ex)
			if err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			if !isSet(got) {
				t.Logf("seed %d query %s: %d rows with duplicates (reference %d)", seed, q, got.Len(), want.Len())
				return false
			}
			if !got.Equal(want) {
				t.Logf("seed %d query %s: %d rows, reference %d", seed, q, got.Len(), want.Len())
				return false
			}
		}
		return true
	}
	proptest.Check(t, f, 1000, regressionSeeds)
}

// TestRowSetCollisions: with every row forced onto one 64-bit hash the
// set still tells unequal rows apart — equality is verified against the
// stored row, a hash is never a key.
func TestRowSetCollisions(t *testing.T) {
	for _, hash := range []func([]storage.NodeID) uint64{
		func([]storage.NodeID) uint64 { return 0 },
		func([]storage.NodeID) uint64 { return ^uint64(0) },
		func(row []storage.NodeID) uint64 { return uint64(row[0] % 2) }, // two clusters
	} {
		s := newRowSet()
		s.hash = hash
		const n = 500
		for i := 0; i < n; i++ {
			if !s.add([]storage.NodeID{storage.NodeID(i), Unbound, storage.NodeID(i / 2)}) {
				t.Fatalf("row %d reported as a duplicate", i)
			}
		}
		for i := 0; i < n; i++ {
			if s.add([]storage.NodeID{storage.NodeID(i), Unbound, storage.NodeID(i / 2)}) {
				t.Fatalf("row %d inserted twice", i)
			}
			if !s.add([]storage.NodeID{storage.NodeID(i), 7, storage.NodeID(i / 2)}) {
				t.Fatalf("row %d with a differing column taken for a duplicate", i)
			}
		}
		if len(s.rows) != 2*n {
			t.Fatalf("set holds %d rows, want %d", len(s.rows), 2*n)
		}
	}
	// The real hash: zero-width rows are all equal.
	s := newRowSet()
	if !s.add(nil) || s.add([]storage.NodeID{}) {
		t.Fatal("the empty row must be inserted exactly once")
	}
}
