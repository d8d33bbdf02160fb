package baseline

import (
	"fmt"
	"math/rand"
	"testing"

	"dualsim/internal/core"
	"dualsim/internal/proptest"
	"dualsim/internal/rdf"
	"dualsim/internal/sparql"
	"dualsim/internal/storage"
)

// regressionSeeds pins the counterexamples the properties have found so
// far (none yet); proptest.Check replays them before exploring.
var regressionSeeds []int64

func mustStore(t *testing.T, ts []rdf.Triple) *storage.Store {
	t.Helper()
	st, err := storage.FromTriples(ts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// fig4 is the counterexample database of the paper's Fig. 4(b).
func fig4(t *testing.T) *storage.Store {
	return mustStore(t, []rdf.Triple{
		rdf.T("p1", "knows", "p2"),
		rdf.T("p2", "knows", "p1"),
		rdf.T("p2", "knows", "p3"),
		rdf.T("p3", "knows", "p2"),
		rdf.T("p3", "knows", "p4"),
		rdf.T("p4", "knows", "p1"),
	})
}

// solve lowers the pattern graph spelled by the basic graph pattern e
// over st and solves its one branch with the SOI solver; the baselines
// read the same branch as their pattern.
func solve(t *testing.T, st *storage.Store, e sparql.Expr) *core.BranchSolution {
	t.Helper()
	rel, err := core.QueryDualSimulation(st, &sparql.Query{Expr: e}, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Branches) != 1 {
		t.Fatalf("branches = %d, want 1", len(rel.Branches))
	}
	return rel.Branches[0]
}

// lower is the pattern graph of the basic graph pattern src over st.
func lower(t *testing.T, st *storage.Store, src string) *core.Branch {
	return solve(t, st, sparql.MustParse(src).Expr).Branch
}

// chiSets returns a solution's χ rows as node sets, indexed like the
// branch's Vars.
func chiSets(bs *core.BranchSolution) []map[storage.NodeID]bool {
	out := make([]map[storage.NodeID]bool, len(bs.Sol.Chi))
	for i, c := range bs.Sol.Chi {
		out[i] = make(map[storage.NodeID]bool, c.Count())
		c.ForEach(func(n int) bool { out[i][storage.NodeID(n)] = true; return true })
	}
	return out
}

const twoCycle = `SELECT * WHERE { ?v <knows> ?w . ?w <knows> ?v . }`

func TestMaFig4(t *testing.T) {
	st := fig4(t)
	pat := lower(t, st, twoCycle)
	res := MaEtAl(st, pat)
	if len(res.Sim[0]) != 4 || len(res.Sim[1]) != 4 {
		t.Fatalf("sim sizes = %d/%d, want 4/4", len(res.Sim[0]), len(res.Sim[1]))
	}
	if res.Iterations < 1 {
		t.Fatal("no iterations counted")
	}
	if err := pat.VerifyDualSimulation(st, res.Sim); err != nil {
		t.Fatal(err)
	}
}

func TestHHKFig4(t *testing.T) {
	st := fig4(t)
	pat := lower(t, st, twoCycle)
	res := HHK(st, pat)
	if len(res.Sim[0]) != 4 || len(res.Sim[1]) != 4 {
		t.Fatalf("sim sizes = %d/%d, want 4/4", len(res.Sim[0]), len(res.Sim[1]))
	}
	if err := pat.VerifyDualSimulation(st, res.Sim); err != nil {
		t.Fatal(err)
	}
}

func TestMaUnknownPredicate(t *testing.T) {
	st := fig4(t)
	res := MaEtAl(st, lower(t, st, `SELECT * WHERE { ?a <nope> ?b . }`))
	if len(res.Sim[0]) != 0 || len(res.Sim[1]) != 0 {
		t.Fatal("unknown predicate must empty the relation")
	}
}

func TestHHKUnknownPredicate(t *testing.T) {
	st := fig4(t)
	res := HHK(st, lower(t, st, `SELECT * WHERE { ?a <nope> ?b . }`))
	if len(res.Sim[0]) != 0 || len(res.Sim[1]) != 0 {
		t.Fatal("unknown predicate must empty the relation")
	}
}

func TestConstantsRespected(t *testing.T) {
	st := mustStore(t, []rdf.Triple{
		rdf.T("a", "p", "b"),
		rdf.T("c", "p", "d"),
	})
	// The pattern edge x -p-> y with x bound to the constant a.
	pat := lower(t, st, `SELECT * WHERE { <a> <p> ?y . }`)
	const xi, yi = 0, 1
	if pat.Vars[xi].Const == nil || pat.Vars[yi].Orig != "y" {
		t.Fatalf("vars = %+v, want the constant, then y", pat.Vars)
	}
	for algo, run := range algorithms() {
		res := run(st, pat)
		aID, _ := st.TermID(rdf.NewIRI("a"))
		bID, _ := st.TermID(rdf.NewIRI("b"))
		if len(res.Sim[xi]) != 1 || !res.Sim[xi][aID] {
			t.Fatalf("%s: x = %v, want {a}", algo, res.Sim[xi])
		}
		if len(res.Sim[yi]) != 1 || !res.Sim[yi][bID] {
			t.Fatalf("%s: y = %v, want {b}", algo, res.Sim[yi])
		}
	}
}

func algorithms() map[string]func(*storage.Store, *core.Branch) *Result {
	return map[string]func(*storage.Store, *core.Branch) *Result{
		"ma":  MaEtAl,
		"hhk": HHK,
	}
}

// randomStore draws a random labeled data graph.
func randomStore(r *rand.Rand, maxNodes, maxPreds, maxEdges int) *storage.Store {
	n := r.Intn(maxNodes) + 2
	p := r.Intn(maxPreds) + 1
	e := r.Intn(maxEdges) + 1
	ts := make([]rdf.Triple, e)
	for i := range ts {
		s := fmt.Sprintf("n%d", r.Intn(n))
		o := fmt.Sprintf("n%d", r.Intn(n))
		pr := fmt.Sprintf("p%d", r.Intn(p))
		ts[i] = rdf.T(s, pr, o)
	}
	st, err := storage.FromTriples(ts)
	if err != nil {
		panic(err)
	}
	return st
}

// randomPattern draws a small random pattern over the same label space,
// spelled as a basic graph pattern.
func randomPattern(r *rand.Rand, maxVars, maxPreds, maxEdges int) sparql.BGP {
	nv := r.Intn(maxVars) + 1
	bgp := make(sparql.BGP, r.Intn(maxEdges)+1)
	for i := range bgp {
		from := sparql.V(fmt.Sprintf("v%d", r.Intn(nv)))
		to := sparql.V(fmt.Sprintf("v%d", r.Intn(nv)))
		bgp[i] = sparql.TriplePattern{S: from, P: sparql.C(fmt.Sprintf("p%d", r.Intn(maxPreds))), O: to}
	}
	return bgp
}

// TestPropertyAllAlgorithmsAgree is the central equivalence invariant: the
// SOI solver, Ma et al. and HHK compute the same largest dual simulation.
func TestPropertyAllAlgorithmsAgree(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		st := randomStore(r, 25, 3, 60)
		soiRel := solve(t, st, randomPattern(r, 4, 3, 5))
		pat := soiRel.Branch
		soiSets := chiSets(soiRel)
		ma := MaEtAl(st, pat)
		hhk := HHK(st, pat)

		for i := range soiSets {
			if !sameSet(soiSets[i], ma.Sim[i]) || !sameSet(soiSets[i], hhk.Sim[i]) {
				t.Logf("seed %d var %d: soi=%v ma=%v hhk=%v",
					seed, i, soiSets[i], ma.Sim[i], hhk.Sim[i])
				return false
			}
		}
		// And the agreed relation is a dual simulation per Definition 2.
		return pat.VerifyDualSimulation(st, soiSets) == nil
	}
	proptest.Check(t, f, 250, regressionSeeds)
}

// TestPropertyMaximality: adding any disqualified pair to the computed
// relation breaks Definition 2 (restricted to patterns without isolated
// variables to keep the check meaningful).
func TestPropertyMaximality(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		st := randomStore(r, 15, 2, 40)
		pat := solve(t, st, randomPattern(r, 3, 2, 4)).Branch
		res := MaEtAl(st, pat)

		// Pick a handful of rejected pairs and check each breaks Def. 2.
		for trial := 0; trial < 5; trial++ {
			v := r.Intn(len(pat.Vars))
			n := storage.NodeID(r.Intn(st.NumNodes()))
			if res.Sim[v][n] {
				continue
			}
			extended := make([]map[storage.NodeID]bool, len(res.Sim))
			for i, s := range res.Sim {
				extended[i] = make(map[storage.NodeID]bool, len(s)+1)
				for k := range s {
					extended[i][k] = true
				}
			}
			extended[v][n] = true
			if pat.VerifyDualSimulation(st, extended) == nil {
				// The extension is still a dual simulation — the computed
				// relation was not maximal.
				t.Logf("seed %d: var %d node %d extends the relation", seed, v, n)
				return false
			}
		}
		return true
	}
	proptest.Check(t, f, 150, regressionSeeds)
}

// TestPropertyHomomorphicMatchesContained is Theorem 1: every homomorphic
// match is inside the largest dual simulation. Matches are enumerated by
// brute force.
func TestPropertyHomomorphicMatchesContained(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		st := randomStore(r, 12, 2, 30)
		rel := solve(t, st, randomPattern(r, 3, 2, 3))
		pat := rel.Branch
		sets := chiSets(rel)

		ok := true
		forEachMatch(st, pat, func(assign []storage.NodeID) {
			for v, n := range assign {
				if !sets[v][n] {
					ok = false
				}
			}
		})
		return ok
	}
	proptest.Check(t, f, 120, regressionSeeds)
}

// forEachMatch enumerates all homomorphic matches of pat by brute force.
func forEachMatch(st *storage.Store, pat *core.Branch, fn func([]storage.NodeID)) {
	assign := make([]storage.NodeID, len(pat.Vars))
	var rec func(v int)
	rec = func(v int) {
		if v == len(pat.Vars) {
			fn(append([]storage.NodeID(nil), assign...))
			return
		}
		for n := 0; n < st.NumNodes(); n++ {
			assign[v] = storage.NodeID(n)
			if pv := pat.Vars[v]; pv.Const != nil {
				id, ok := st.TermID(*pv.Const)
				if !ok || id != assign[v] {
					continue
				}
			}
			ok := true
			for _, e := range pat.Edges {
				if e.From > v || e.To > v {
					continue
				}
				pid, has := st.PredIDOf(e.Pred)
				if !has || !st.HasTriple(assign[e.From], pid, assign[e.To]) {
					ok = false
					break
				}
			}
			if ok {
				rec(v + 1)
			}
		}
	}
	rec(0)
}

func sameSet(a, b map[storage.NodeID]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}
