package core

import (
	"slices"
	"testing"

	"dualsim/internal/bitvec"
	"dualsim/internal/rdf"
	"dualsim/internal/sparql"
	"dualsim/internal/storage"
)

// fig1a returns the example graph database of the paper's Fig. 1(a).
// Edge directions are reconstructed from the running text: relation (2)
// names B. De Palma and G. Hamilton as the only ?director matches of (X1),
// while D. Koepp and T. Young additionally match the optional query (X2) —
// so neither may have an outgoing worked_with edge.
func fig1a(t *testing.T) *storage.Store {
	t.Helper()
	st, err := storage.FromTriples([]rdf.Triple{
		rdf.T("B._De_Palma", "directed", "Mission:_Impossible"),
		rdf.T("B._De_Palma", "awarded", "Oscar"),
		rdf.T("B._De_Palma", "born_in", "Newark"),
		rdf.T("B._De_Palma", "worked_with", "D._Koepp"),
		rdf.T("Mission:_Impossible", "genre", "Action"),
		rdf.T("Goldfinger", "genre", "Action"),
		rdf.T("G._Hamilton", "directed", "Goldfinger"),
		rdf.T("G._Hamilton", "born_in", "Paris"),
		rdf.T("G._Hamilton", "worked_with", "H._Saltzman"),
		rdf.T("Thunderball", "sequel_of", "Goldfinger"),
		rdf.T("Thunderball", "awarded", "Oscar"),
		rdf.T("H._Saltzman", "born_in", "Saint_John"),
		rdf.T("From_Russia_with_Love", "prequel_of", "Goldfinger"),
		rdf.T("T._Young", "directed", "From_Russia_with_Love"),
		rdf.T("T._Young", "awarded", "BAFTA_Awards"),
		rdf.T("P.R._Hunt", "worked_with", "D._Koepp"),
		rdf.T("D._Koepp", "directed", "Mortdecai"),
		rdf.TL("Newark", "population", "277140"),
		rdf.TL("Paris", "population", "2220445"),
		rdf.TL("Saint_John", "population", "70063"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// queryX1 spells the graph representation of query (X1), Fig. 1(b).
const queryX1 = `SELECT * WHERE { ?director <directed> ?movie . ?director <worked_with> ?coworker . }`

// simulate lowers the pattern graph spelled by the basic graph pattern
// src and solves its one branch.
func simulate(t *testing.T, st *storage.Store, src string) *BranchSolution {
	t.Helper()
	rel, err := QueryDualSimulation(st, sparql.MustParse(src), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Branches) != 1 {
		t.Fatalf("branches = %d, want 1", len(rel.Branches))
	}
	return rel.Branches[0]
}

// set returns χ of the named SOI variable as a node set (nil when the
// branch has no such variable).
func (bs *BranchSolution) set(name string) map[storage.NodeID]bool {
	i, ok := bs.Branch.varNamed(name)
	if !ok {
		return nil
	}
	return bs.sets()[i]
}

// sets returns every χ row as a node set, indexed like Branch.Vars.
func (bs *BranchSolution) sets() []map[storage.NodeID]bool {
	out := make([]map[storage.NodeID]bool, len(bs.Sol.Chi))
	for i, c := range bs.Sol.Chi {
		out[i] = make(map[storage.NodeID]bool, c.Count())
		c.ForEach(func(n int) bool { out[i][storage.NodeID(n)] = true; return true })
	}
	return out
}

// isEmpty reports whether the relation is the empty dual simulation —
// every variable's χ row is empty.
func (bs *BranchSolution) isEmpty() bool {
	return !slices.ContainsFunc(bs.Sol.Chi, func(c *bitvec.Vector) bool { return !c.IsEmpty() })
}

// constName is the SOI variable name of a constant endpoint.
func constName(t rdf.Term) string { return "const:" + t.Key() }

func nodeSet(t *testing.T, st *storage.Store, names ...string) map[storage.NodeID]bool {
	t.Helper()
	m := make(map[storage.NodeID]bool)
	for _, n := range names {
		id, ok := st.TermID(rdf.NewIRI(n))
		if !ok {
			t.Fatalf("node %q not in store", n)
		}
		m[id] = true
	}
	return m
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

// TestRelation2 reproduces the paper's dual simulation (2): the largest
// dual simulation between (X1) and Fig. 1(a) comprises exactly the nodes
// of the two homomorphic result subgraphs.
func TestRelation2(t *testing.T) {
	st := fig1a(t)
	rel := simulate(t, st, queryX1)
	if got, want := rel.set("director"), nodeSet(t, st, "B._De_Palma", "G._Hamilton"); !sameSet(got, want) {
		t.Fatalf("director = %v, want %v", got, want)
	}
	if got, want := rel.set("movie"), nodeSet(t, st, "Mission:_Impossible", "Goldfinger"); !sameSet(got, want) {
		t.Fatalf("movie = %v, want %v", got, want)
	}
	if got, want := rel.set("coworker"), nodeSet(t, st, "D._Koepp", "H._Saltzman"); !sameSet(got, want) {
		t.Fatalf("coworker = %v, want %v", got, want)
	}
	if err := rel.Branch.VerifyDualSimulation(st, rel.sets()); err != nil {
		t.Fatalf("not a dual simulation: %v", err)
	}
}

// fig2b is the data graph of Fig. 2(b) loaded as a store.
func fig2b(t *testing.T) *storage.Store {
	t.Helper()
	st, err := storage.FromTriples([]rdf.Triple{
		rdf.T("director", "born_in", "place"),
		rdf.T("director", "worked_with", "coworker"),
		rdf.T("director", "directed", "movie"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// queryFig2a spells the pattern of Fig. 2(a).
const queryFig2a = `SELECT * WHERE {
  ?director1 <born_in> ?place . ?director2 <born_in> ?place .
  ?director1 <worked_with> ?coworker . ?director2 <directed> ?movie . }`

// TestRelation1 reproduces the paper's dual simulation (1) between
// Fig. 2(a) and Fig. 2(b).
func TestRelation1(t *testing.T) {
	st := fig2b(t)
	rel := simulate(t, st, queryFig2a)
	want := map[string][]string{
		"place":     {"place"},
		"director1": {"director"},
		"director2": {"director"},
		"coworker":  {"coworker"},
		"movie":     {"movie"},
	}
	for v, nodes := range want {
		if got := rel.set(v); !sameSet(got, nodeSet(t, st, nodes...)) {
			t.Fatalf("%s = %v, want %v", v, got, nodes)
		}
	}
}

// TestFig2bDualSimulatesX1 verifies "the graph in Fig. 2(b) dual simulates
// the graph representation of (X1)" — place is simply not a pattern node.
func TestFig2bDualSimulatesX1(t *testing.T) {
	if simulate(t, fig2b(t), queryX1).isEmpty() {
		t.Fatal("expected non-empty dual simulation")
	}
}

// TestFig2aVsX1Empty verifies "the graph in Fig. 2(a) neither dual
// simulates nor is dual simulated by the graph in Fig. 1(b)".
func TestFig2aVsX1Empty(t *testing.T) {
	// Fig. 2(a) as data, X1 as pattern: no node has both directed and
	// worked_with outgoing edges.
	st, err := storage.FromTriples([]rdf.Triple{
		rdf.T("director1", "born_in", "place"),
		rdf.T("director2", "born_in", "place"),
		rdf.T("director1", "worked_with", "coworker"),
		rdf.T("director2", "directed", "movie"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rel := simulate(t, st, queryX1); !rel.isEmpty() {
		t.Fatalf("expected empty, got director=%v", rel.set("director"))
	}
	// X1's graph as data, Fig. 2(a) as pattern: no born_in edges at all.
	st2, err := storage.FromTriples([]rdf.Triple{
		rdf.T("director", "directed", "movie"),
		rdf.T("director", "worked_with", "coworker"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !simulate(t, st2, queryFig2a).isEmpty() {
		t.Fatal("expected empty dual simulation")
	}
}

// TestFig4Counterexample reproduces Sect. 4.1's counterexample: p4 is
// dual-simulation relevant although it participates in no homomorphic
// match of the 2-cycle pattern P.
func TestFig4Counterexample(t *testing.T) {
	st, err := storage.FromTriples([]rdf.Triple{
		rdf.T("p1", "knows", "p2"),
		rdf.T("p2", "knows", "p1"),
		rdf.T("p2", "knows", "p3"),
		rdf.T("p3", "knows", "p2"),
		rdf.T("p3", "knows", "p4"),
		rdf.T("p4", "knows", "p1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	rel := simulate(t, st, `SELECT * WHERE { ?v <knows> ?w . ?w <knows> ?v . }`)
	all := nodeSet(t, st, "p1", "p2", "p3", "p4")
	if got := rel.set("v"); !sameSet(got, all) {
		t.Fatalf("v = %v, want all four nodes", got)
	}
	if got := rel.set("w"); !sameSet(got, all) {
		t.Fatalf("w = %v, want all four nodes", got)
	}
	// p4 is in no match: matches need mutual knows pairs, and p4 has none.
	p4, _ := st.TermID(rdf.NewIRI("p4"))
	knows, _ := st.PredIDOf("knows")
	for _, o := range st.Objects(knows, p4) {
		if st.HasTriple(o, knows, p4) {
			t.Fatal("fixture broken: p4 has a mutual pair")
		}
	}
}

// TestConstants exercises the Sect. 4.5 constant-node extension: binding
// the genre node to the constant Action restricts movies to those with
// genre Action.
func TestConstants(t *testing.T) {
	st := fig1a(t)
	rel := simulate(t, st, `SELECT * WHERE { ?director <directed> ?movie . ?movie <genre> <Action> . }`)
	if got, want := rel.set("movie"), nodeSet(t, st, "Mission:_Impossible", "Goldfinger"); !sameSet(got, want) {
		t.Fatalf("movie = %v, want %v", got, want)
	}
	if got, want := rel.set(constName(rdf.NewIRI("Action"))), nodeSet(t, st, "Action"); !sameSet(got, want) {
		t.Fatalf("<Action> = %v, want %v", got, want)
	}
}

// TestConstantAbsentFromDB: a constant that is not in the database empties
// the relation.
func TestConstantAbsentFromDB(t *testing.T) {
	st := fig1a(t)
	if !simulate(t, st, `SELECT * WHERE { ?director <directed> <Nonexistent_Movie> . }`).isEmpty() {
		t.Fatal("expected empty relation for absent constant")
	}
}

// TestUnknownPredicate: a predicate absent from Σ empties the incident
// variables.
func TestUnknownPredicate(t *testing.T) {
	st := fig1a(t)
	if !simulate(t, st, `SELECT * WHERE { ?a <no_such_predicate> ?b . }`).isEmpty() {
		t.Fatal("expected empty relation for unknown predicate")
	}
}

// TestLiteralEndpoints: literals participate as objects (population).
func TestLiteralEndpoints(t *testing.T) {
	st := fig1a(t)
	rel := simulate(t, st, `SELECT * WHERE { ?city <population> ?pop . }`)
	if got, want := rel.set("city"), nodeSet(t, st, "Newark", "Paris", "Saint_John"); !sameSet(got, want) {
		t.Fatalf("city = %v, want %v", got, want)
	}
	if rel.set("pop")[mustLit(t, st, "70063")] != true {
		t.Fatal("literal 70063 missing from pop")
	}
}

func mustLit(t *testing.T, st *storage.Store, v string) storage.NodeID {
	t.Helper()
	id, ok := st.TermID(rdf.NewLiteral(v))
	if !ok {
		t.Fatalf("literal %q missing", v)
	}
	return id
}

// TestUnsatisfiableComponent: the largest dual simulation is
// per-component (see Sect. 2 discussion), so an unsatisfiable component
// empties its own variables while a satisfiable one survives.
func TestUnsatisfiableComponent(t *testing.T) {
	st := fig1a(t)
	// c directed d is a separate satisfiable component.
	rel := simulate(t, st, `SELECT * WHERE { ?a <no_such_predicate> ?b . ?c <directed> ?d . }`)
	if len(rel.set("c")) == 0 {
		t.Fatal("component c should be non-empty")
	}
	if len(rel.set("a")) != 0 {
		t.Fatal("component a should be empty")
	}
	if rel.isEmpty() {
		t.Fatal("isEmpty should not hold: component c survives")
	}
}

// TestSelfLoopPattern: a pattern edge v -knows-> v requires data
// self-loops.
func TestSelfLoopPattern(t *testing.T) {
	st, err := storage.FromTriples([]rdf.Triple{
		rdf.T("a", "knows", "a"),
		rdf.T("a", "knows", "b"),
		rdf.T("b", "knows", "c"),
	})
	if err != nil {
		t.Fatal(err)
	}
	rel := simulate(t, st, `SELECT * WHERE { ?v <knows> ?v . }`)
	if got, want := rel.set("v"), nodeSet(t, st, "a"); !sameSet(got, want) {
		t.Fatalf("v = %v, want {a}", got)
	}
}

// TestIsCyclic covers the shape classifier used by the experiment
// harness.
func TestIsCyclic(t *testing.T) {
	st := fig1a(t)
	for _, c := range []struct {
		name, src string
		cyclic    bool
	}{
		{"X1", queryX1, false},
		{"triangle", `SELECT * WHERE { ?a <p> ?b . ?b <q> ?c . ?a <r> ?c . }`, true},
		{"parallel edges", `SELECT * WHERE { ?a <p> ?b . ?a <q> ?b . }`, true},
		{"2-cycle", `SELECT * WHERE { ?v <knows> ?w . ?w <knows> ?v . }`, true},
	} {
		if got := branchOf(t, c.src, st).IsCyclic(); got != c.cyclic {
			t.Fatalf("%s: IsCyclic = %v, want %v", c.name, got, c.cyclic)
		}
	}
}

// TestVerifySolutionAgainstSOI: the solver's output satisfies the system
// it was built from (Sect. 4.5 PTIME validity check).
func TestVerifySolutionAgainstSOI(t *testing.T) {
	rel := simulate(t, fig1a(t), queryX1)
	if bad := rel.Branch.Sys.Verify(rel.Sol); bad != nil {
		t.Fatalf("solution violates %v", bad)
	}
}
