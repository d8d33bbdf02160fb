package engine_test

import (
	"context"
	"slices"
	"testing"

	"dualsim/internal/core"
	"dualsim/internal/engine"
	"dualsim/internal/plan"
	"dualsim/internal/prune"
	"dualsim/internal/rdf"
	"dualsim/internal/sparql"
	"dualsim/internal/storage"
)

// TestScanAccessPaths drives every access path of the one operator that
// reads triples, compiled from a leaf scan exactly as the session compiles
// it, on the bare store and through a solved dual simulation's filter.
// Through the filter, b p c and a p b survive (the chain ?x p ?y . ?y p ?z
// leaves χ(x) = {a}, χ(y) = {b}, χ(z) = {c}) and a p c does not, so the
// mask walk, Admit on a bound end, Keep on two bound ends and the
// operator's Filtered counter are all exercised. Each execution is drained,
// re-opened and drained again: the second pass must repeat the first.
func TestScanAccessPaths(t *testing.T) {
	st, err := storage.FromTriples([]rdf.Triple{
		rdf.T("a", "p", "b"),
		rdf.T("a", "p", "c"),
		rdf.T("b", "p", "c"),
		rdf.T("a", "q", "a"), // self-loop
		rdf.T("b", "q", "c"),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	chain := sparql.MustParse(`SELECT * WHERE { ?x p ?y . ?y p ?z . ?x q ?x }`)
	pruning, _, err := prune.PruneQueryCtx(ctx, st, chain, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	views := []struct {
		name   string
		filter storage.Filter
		store  *storage.Store // what the oracle reads
	}{
		{"bare", nil, st},
		{"filtered", pruning.Filter(), pruning.Store()},
	}
	tp := func(s, p, o string) sparql.TriplePattern {
		term := func(x string) sparql.Term {
			if x[0] == '?' {
				return sparql.V(x[1:])
			}
			return sparql.C(x)
		}
		return sparql.TriplePattern{S: term(s), P: sparql.C(p), O: term(o)}
	}
	cases := []struct {
		tp   sparql.TriplePattern
		vars int
		// rows and filtered per view: bare, filtered.
		rows, filtered [2]int
	}{
		{tp("?x", "p", "?y"), 2, [2]int{3, 2}, [2]int{0, 0}},
		{tp("a", "p", "?y"), 1, [2]int{2, 1}, [2]int{0, 1}},
		{tp("?x", "p", "c"), 1, [2]int{2, 1}, [2]int{0, 1}},
		{tp("a", "p", "b"), 0, [2]int{1, 1}, [2]int{0, 0}},
		{tp("a", "p", "c"), 0, [2]int{1, 0}, [2]int{0, 1}},
		{tp("a", "p", "a"), 0, [2]int{0, 0}, [2]int{0, 0}},
		{tp("?x", "q", "?x"), 1, [2]int{1, 1}, [2]int{0, 0}},
		{tp("?x", "q", "?y"), 2, [2]int{2, 1}, [2]int{0, 0}},
		{tp("?x", "nope", "?y"), 2, [2]int{0, 0}, [2]int{0, 0}},
		{tp("zz", "p", "?y"), 1, [2]int{0, 0}, [2]int{0, 0}},
	}
	oracle := engine.NewIndexNL()
	for i, c := range cases {
		for vi, view := range views {
			want, err := oracle.Evaluate(ctx, view.store, &sparql.Query{Expr: sparql.BGP{c.tp}})
			if err != nil {
				t.Fatal(err)
			}
			ex, err := engine.CompilePlan(st, &plan.Plan{Root: plan.Scan{TP: c.tp, Detail: c.tp.String()}, Filter: view.filter})
			if err != nil {
				t.Fatal(err)
			}
			if len(ex.Vars()) != c.vars {
				t.Fatalf("case %d (%v): vars = %v, want %d", i, c.tp, ex.Vars(), c.vars)
			}
			var first *engine.Result
			for pass := 1; pass <= 2; pass++ {
				got, err := engine.Drain(ctx, ex)
				if err != nil {
					t.Fatal(err)
				}
				for _, row := range got.Rows {
					if len(row) != c.vars {
						t.Fatalf("case %d (%v, %s): row %v, want width %d", i, c.tp, view.name, row, c.vars)
					}
				}
				if got.Len() != c.rows[vi] || !got.Equal(want) {
					t.Fatalf("case %d (%v, %s) pass %d: %d rows, want %d, the oracle's %d", i, c.tp, view.name, pass, got.Len(), c.rows[vi], want.Len())
				}
				if first == nil {
					first = got
				} else if g, f := engine.RowsOf(got), engine.RowsOf(first); !slices.EqualFunc(g, f, slices.Equal) {
					t.Fatalf("case %d (%v, %s): re-opened, the scan streamed %v, first %v", i, c.tp, view.name, g, f)
				}
				ops := ex.Operators()
				if len(ops) != 1 || ops[0].Op != "scan" || ops[0].Detail != c.tp.String() {
					t.Fatalf("case %d (%v, %s): operators %+v, want one scan", i, c.tp, view.name, ops)
				}
				if got, want := ops[0].Filtered, int64(c.filtered[vi]); got != want {
					t.Fatalf("case %d (%v, %s) pass %d: filtered = %d, want %d", i, c.tp, view.name, pass, got, want)
				}
			}
		}
	}
}
