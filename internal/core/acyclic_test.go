package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"dualsim/internal/bitvec"
	"dualsim/internal/engine"
	"dualsim/internal/proptest"
	"dualsim/internal/rdf"
	"dualsim/internal/sparql"
	"dualsim/internal/storage"
)

// This file tests the converse of Theorem 1 on acyclic patterns: on a
// tree-shaped BGP the candidate sets are tight. Dual simulation is arc
// consistency of the constraint network the pattern spells, and on a
// tree arc consistency is global consistency (Freuder 1982), so every
// candidate of every variable occurs in some match.

// randomTreeBGP draws a connected tree-shaped BGP over 2–6 variables:
// each new variable joins an earlier one through one pattern, in a
// random direction. Up to two constant leaves follow, each a distinct
// constant used once, so the pattern graph stays a tree.
func randomTreeBGP(r *rand.Rand, nodes, preds int) (sparql.BGP, []string) {
	var bgp sparql.BGP
	join := func(x, y sparql.Term) {
		if r.Intn(2) == 0 {
			x, y = y, x
		}
		bgp = append(bgp, sparql.TriplePattern{S: x, P: sparql.C(fmt.Sprintf("p%d", r.Intn(preds))), O: y})
	}
	vars := []string{"v0"}
	for v, nv := 1, 2+r.Intn(5); v < nv; v++ {
		vars = append(vars, fmt.Sprintf("v%d", v))
		join(sparql.V(vars[r.Intn(v)]), sparql.V(vars[v]))
	}
	consts := r.Perm(nodes)
	for i := range r.Intn(3) {
		join(sparql.V(vars[r.Intn(len(vars))]), sparql.C(fmt.Sprintf("n%d", consts[i])))
	}
	return bgp, vars
}

// answerSets returns, per variable, the set of values it takes in res.
func answerSets(t *testing.T, res *engine.Result, vars []string, n int) map[string]*bitvec.Vector {
	t.Helper()
	col := make(map[string]int, len(res.Vars))
	for i, v := range res.Vars {
		col[v] = i
	}
	out := make(map[string]*bitvec.Vector, len(vars))
	for _, v := range vars {
		out[v] = bitvec.New(n)
		i, ok := col[v]
		if !ok {
			if res.Len() > 0 {
				t.Fatalf("variable %s missing from the answer's columns %v", v, res.Vars)
			}
			continue
		}
		for _, row := range res.Rows {
			if row[i] != engine.Unbound {
				out[v].Set(int(row[i]))
			}
		}
	}
	return out
}

// TestPropertyAcyclicCoreIsTight: on random stores and random tree-shaped
// BGPs, χ(v) is exactly the set of v's values in the answer, for every
// variable v. Theorem 1 gives ⊇; the tree gives ⊆.
func TestPropertyAcyclicCoreIsTight(t *testing.T) {
	const nodes, preds = 8, 3
	oracle := engine.NewIndexNL()
	answered := 0
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		st, err := storage.FromTriples(randomTriplesT1(r, nodes, preds, 22))
		if err != nil {
			t.Log(err)
			return false
		}
		bgp, vars := randomTreeBGP(r, nodes, preds)
		q := &sparql.Query{Expr: bgp}
		rel, err := QueryDualSimulation(st, q, Config{})
		if err != nil {
			t.Log(err)
			return false
		}
		res, err := oracle.Evaluate(context.Background(), st, q)
		if err != nil {
			t.Log(err)
			return false
		}
		if res.Len() > 0 {
			answered++
		}
		got := answerSets(t, res, vars, st.NumNodes())
		for _, v := range vars {
			if chi := rel.VarSet(v); !chi.Equal(got[v]) {
				t.Logf("seed %d: χ(%s) = %v, the answer binds %v, query %s", seed, v, chi, got[v], q)
				return false
			}
		}
		return true
	}
	proptest.Check(t, f, 400, regressionSeeds)
	t.Logf("%d drawn queries had an answer", answered)
	if answered == 0 {
		t.Fatal("no drawn query had an answer: the property was never tested on a non-empty χ")
	}
}

// TestAcyclicTightnessNeedsATree: on a cycle the check fails. A directed
// triangle over a directed 6-cycle is dual simulated by every node —
// each has one p-predecessor and one p-successor — but the 6-cycle holds
// no closed walk of length 3, so there is no match.
func TestAcyclicTightnessNeedsATree(t *testing.T) {
	var ts []rdf.Triple
	for i := range 6 {
		ts = append(ts, rdf.T(fmt.Sprintf("n%d", i), "p", fmt.Sprintf("n%d", (i+1)%6)))
	}
	st, err := storage.FromTriples(ts)
	if err != nil {
		t.Fatal(err)
	}
	q := sparql.MustParse(`SELECT * WHERE { ?a <p> ?b . ?b <p> ?c . ?c <p> ?a . }`)
	rel, err := QueryDualSimulation(st, q, Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.NewIndexNL().Evaluate(context.Background(), st, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Fatalf("the triangle has %d matches in the 6-cycle, want 0", res.Len())
	}
	for _, v := range []string{"a", "b", "c"} {
		if n := rel.VarSet(v).Count(); n != 6 {
			t.Fatalf("|χ(%s)| = %d, want all 6 nodes", v, n)
		}
	}
}
