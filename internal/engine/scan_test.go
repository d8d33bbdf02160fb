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
	for _, v := range []storage.NodeID{3, 1, 2, Unbound} {
		r.Append([]storage.NodeID{v})
	}
	r.Sort()
	if r.Row(0)[0] != 1 || r.Row(1)[0] != 2 || r.Row(2)[0] != 3 || r.Row(3)[0] != Unbound {
		t.Fatalf("Sort = %v", rowsOf(r))
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
	l.Append([]storage.NodeID{a, Unbound})
	l.Append([]storage.NodeID{b, c})
	r := NewResult("y", "z")
	r.Append([]storage.NodeID{c, a})
	r.Append([]storage.NodeID{b, b})

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
