package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"dualsim/internal/engine"
	"dualsim/internal/rdf"
	"dualsim/internal/sparql"
	"dualsim/internal/storage"
)

// This file property-tests Theorem 1 lifted to full queries (Theorem 2):
// every variable binding of every SPARQL result mapping is contained in
// the query's dual simulation candidate sets — across AND, OPTIONAL,
// UNION, constants and renamed optional copies.

func randomQueryT1(r *rand.Rand, depth, vars, preds int) sparql.Expr {
	if depth == 0 || r.Intn(3) == 0 {
		n := r.Intn(2) + 1
		bgp := make(sparql.BGP, n)
		for i := range bgp {
			bgp[i] = sparql.TriplePattern{
				S: randTermT1(r, vars),
				P: sparql.C(fmt.Sprintf("p%d", r.Intn(preds))),
				O: randTermT1(r, vars),
			}
		}
		return bgp
	}
	l := randomQueryT1(r, depth-1, vars, preds)
	rr := randomQueryT1(r, depth-1, vars, preds)
	switch r.Intn(4) {
	case 0, 1:
		return sparql.And{L: l, R: rr}
	case 2:
		return sparql.Optional{L: l, R: rr}
	default:
		return sparql.Union{L: l, R: rr}
	}
}

func randTermT1(r *rand.Rand, vars int) sparql.Term {
	if r.Intn(6) == 0 {
		return sparql.C(fmt.Sprintf("n%d", r.Intn(6)))
	}
	return sparql.V(fmt.Sprintf("v%d", r.Intn(vars)))
}

func randomTriplesT1(r *rand.Rand, nodes, preds, edges int) []rdf.Triple {
	ts := make([]rdf.Triple, edges)
	for i := range ts {
		ts[i] = rdf.T(
			fmt.Sprintf("n%d", r.Intn(nodes)),
			fmt.Sprintf("p%d", r.Intn(preds)),
			fmt.Sprintf("n%d", r.Intn(nodes)))
	}
	return ts
}

// TestPropertyTheorem1QueryLevel: result bindings ⊆ candidate sets.
func TestPropertyTheorem1QueryLevel(t *testing.T) {
	eng := engine.NewVolcano()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		st, err := storage.FromTriples(randomTriplesT1(r, 8, 3, 22))
		if err != nil {
			return false
		}
		q := &sparql.Query{Expr: randomQueryT1(r, 2, 4, 3)}
		rel, err := QueryDualSimulation(st, q, Config{})
		if err != nil {
			return false
		}
		res, err := eng.Evaluate(context.Background(), st, q)
		if err != nil {
			return false
		}
		for vi, v := range res.Vars {
			set := rel.VarSet(v)
			for _, row := range res.Rows {
				if row[vi] == engine.Unbound {
					continue
				}
				if !set.Get(int(row[vi])) {
					t.Logf("seed %d: binding %s=%d escapes χS, query %s",
						seed, v, row[vi], q)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyShortCircuitConsistency: with ShortCircuit the relation may
// stop early, but the emptiness verdict must match the non-short-circuit
// run, and a non-empty result set forbids a short circuit.
func TestPropertyShortCircuitConsistency(t *testing.T) {
	eng := engine.NewVolcano()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		st, err := storage.FromTriples(randomTriplesT1(r, 8, 3, 22))
		if err != nil {
			return false
		}
		q := &sparql.Query{Expr: randomQueryT1(r, 2, 4, 3)}
		plain, err := QueryDualSimulation(st, q, Config{})
		if err != nil {
			return false
		}
		sc, err := QueryDualSimulation(st, q, Config{ShortCircuit: true})
		if err != nil {
			return false
		}
		if plain.Empty() != sc.Empty() {
			t.Logf("seed %d: emptiness differs, query %s", seed, q)
			return false
		}
		if sc.Empty() {
			res, err := eng.Evaluate(context.Background(), st, q)
			if err != nil {
				return false
			}
			if res.Len() != 0 {
				t.Logf("seed %d: short-circuited but %d results, query %s",
					seed, res.Len(), q)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
