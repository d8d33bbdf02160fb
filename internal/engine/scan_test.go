package engine

import (
	"context"
	"testing"

	"dualsim/internal/rdf"
	"dualsim/internal/sparql"
	"dualsim/internal/storage"
)

func scanFixture(t *testing.T) *storage.Store {
	t.Helper()
	return mustStore(t, []rdf.Triple{
		rdf.T("a", "p", "b"),
		rdf.T("a", "p", "c"),
		rdf.T("b", "p", "c"),
		rdf.T("a", "q", "a"), // self-loop
	})
}

func mustResolve(t *testing.T, st *storage.Store, tp sparql.TriplePattern) resolved {
	t.Helper()
	r, err := resolve(st, tp)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestScanAccessPaths(t *testing.T) {
	st := scanFixture(t)
	cases := []struct {
		tp   sparql.TriplePattern
		rows int
		vars int
	}{
		{sparql.TriplePattern{S: sparql.V("x"), P: sparql.C("p"), O: sparql.V("y")}, 3, 2},
		{sparql.TriplePattern{S: sparql.C("a"), P: sparql.C("p"), O: sparql.V("y")}, 2, 1},
		{sparql.TriplePattern{S: sparql.V("x"), P: sparql.C("p"), O: sparql.C("c")}, 2, 1},
		{sparql.TriplePattern{S: sparql.C("a"), P: sparql.C("p"), O: sparql.C("b")}, 1, 0},
		{sparql.TriplePattern{S: sparql.C("a"), P: sparql.C("p"), O: sparql.C("a")}, 0, 0},
		{sparql.TriplePattern{S: sparql.V("x"), P: sparql.C("q"), O: sparql.V("x")}, 1, 1},
		{sparql.TriplePattern{S: sparql.V("x"), P: sparql.C("nope"), O: sparql.V("y")}, 0, 2},
		{sparql.TriplePattern{S: sparql.C("zz"), P: sparql.C("p"), O: sparql.V("y")}, 0, 1},
	}
	for i, c := range cases {
		it := &scanIter{st: st, r: mustResolve(t, st, c.tp), slab: &slab{}}
		if err := it.Open(context.Background()); err != nil {
			t.Fatal(err)
		}
		rows := 0
		for {
			row, ok, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if len(row) != c.vars {
				t.Fatalf("case %d: row %v, want width %d", i, row, c.vars)
			}
			rows++
		}
		if rows != c.rows {
			t.Fatalf("case %d (%v): rows = %d, want %d", i, c.tp, rows, c.rows)
		}
		if len(it.Vars()) != c.vars {
			t.Fatalf("case %d: vars = %v, want %d", i, it.Vars(), c.vars)
		}
	}
}

func TestEstimates(t *testing.T) {
	st := scanFixture(t)
	free := mustResolve(t, st, sparql.TriplePattern{S: sparql.V("x"), P: sparql.C("p"), O: sparql.V("y")})
	if got := free.estimate(st, nil); got != 3 {
		t.Fatalf("free estimate = %f, want 3", got)
	}
	// With the subject bound: count / distinct subjects = 3/2.
	if got := free.estimate(st, map[string]bool{"x": true}); got != 1.5 {
		t.Fatalf("s-bound estimate = %f, want 1.5", got)
	}
	// With the object bound: 3/2 distinct objects... objects are {b,c}: 3/2.
	if got := free.estimate(st, map[string]bool{"y": true}); got != 1.5 {
		t.Fatalf("o-bound estimate = %f, want 1.5", got)
	}
	if got := free.estimate(st, map[string]bool{"x": true, "y": true}); got != 1 {
		t.Fatalf("both-bound estimate = %f, want 1", got)
	}
	missing := mustResolve(t, st, sparql.TriplePattern{S: sparql.V("x"), P: sparql.C("nope"), O: sparql.V("y")})
	if got := missing.estimate(st, nil); got != 0 {
		t.Fatalf("missing-pred estimate = %f, want 0", got)
	}
}

func TestUnionSchemaAlignment(t *testing.T) {
	// UNION of disjoint schemas pads with Unbound.
	st := scanFixture(t)
	q := sparql.MustParse(`SELECT * WHERE { { ?x p ?y } UNION { ?z q ?z } }`)
	for _, e := range engines() {
		res, err := e.Evaluate(context.Background(), st, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Vars) != 3 {
			t.Fatalf("%s: vars = %v", e.Name(), res.Vars)
		}
		if res.Len() != 4 {
			t.Fatalf("%s: rows = %d, want 4", e.Name(), res.Len())
		}
		zi := res.VarIndex("z")
		unbound := 0
		for _, row := range res.Rows {
			if row[zi] == Unbound {
				unbound++
			}
		}
		if unbound != 3 {
			t.Fatalf("%s: %d unbound z, want 3", e.Name(), unbound)
		}
	}
}

func TestSortDeterminism(t *testing.T) {
	r := NewResult("a")
	r.Rows = [][]storage.NodeID{{3}, {1}, {2}, {Unbound}}
	r.Sort()
	if r.Rows[0][0] != 1 || r.Rows[1][0] != 2 || r.Rows[2][0] != 3 || r.Rows[3][0] != Unbound {
		t.Fatalf("Sort = %v", r.Rows)
	}
}

func mustJoin(t *testing.T, l, r *Result, leftOuter bool) *Result {
	t.Helper()
	out, err := join(context.Background(), l, r, leftOuter)
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	return out
}

// TestJoinOnUnboundSharedVars: a row with an unbound shared variable is
// compatible with anything (the slow path of join).
func TestJoinOnUnboundSharedVars(t *testing.T) {
	st := scanFixture(t)
	// L: OPTIONAL gives unbound y for subjects without q… build directly:
	l := NewResult("x", "y")
	a, _ := st.TermID(rdf.NewIRI("a"))
	b, _ := st.TermID(rdf.NewIRI("b"))
	c, _ := st.TermID(rdf.NewIRI("c"))
	l.Rows = [][]storage.NodeID{{a, Unbound}, {b, c}}
	r := NewResult("y", "z")
	r.Rows = [][]storage.NodeID{{c, a}, {b, b}}

	joined := mustJoin(t, l, r, false)
	// Row (a, unbound) joins both r rows; row (b, c) joins only (c, a).
	if joined.Len() != 3 {
		t.Fatalf("joined = %d rows\n%s", joined.Len(), joined.Format(st))
	}
	left := mustJoin(t, l, NewResult("y", "z"), true)
	if left.Len() != 2 {
		t.Fatalf("left join against empty = %d rows", left.Len())
	}
}
