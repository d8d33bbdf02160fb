package core

import (
	"context"
	"testing"

	"dualsim/internal/rdf"
	"dualsim/internal/soi"
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

// patternX1 is the graph representation of query (X1), Fig. 1(b).
func patternX1() *Pattern {
	p := NewPattern()
	p.Edge("director", "directed", "movie")
	p.Edge("director", "worked_with", "coworker")
	return p
}

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
	rel := DualSimulation(st, patternX1(), Config{})
	if got, want := rel.Set("director"), nodeSet(t, st, "B._De_Palma", "G._Hamilton"); !sameSet(got, want) {
		t.Fatalf("director = %v, want %v", got, want)
	}
	if got, want := rel.Set("movie"), nodeSet(t, st, "Mission:_Impossible", "Goldfinger"); !sameSet(got, want) {
		t.Fatalf("movie = %v, want %v", got, want)
	}
	if got, want := rel.Set("coworker"), nodeSet(t, st, "D._Koepp", "H._Saltzman"); !sameSet(got, want) {
		t.Fatalf("coworker = %v, want %v", got, want)
	}
	if err := rel.Pattern.VerifyDualSimulation(st, rel.Sets()); err != nil {
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

// patternFig2a is the pattern of Fig. 2(a).
func patternFig2a() *Pattern {
	p := NewPattern()
	p.Edge("director1", "born_in", "place")
	p.Edge("director2", "born_in", "place")
	p.Edge("director1", "worked_with", "coworker")
	p.Edge("director2", "directed", "movie")
	return p
}

// TestRelation1 reproduces the paper's dual simulation (1) between
// Fig. 2(a) and Fig. 2(b).
func TestRelation1(t *testing.T) {
	st := fig2b(t)
	rel := DualSimulation(st, patternFig2a(), Config{})
	want := map[string][]string{
		"place":     {"place"},
		"director1": {"director"},
		"director2": {"director"},
		"coworker":  {"coworker"},
		"movie":     {"movie"},
	}
	for v, nodes := range want {
		if got := rel.Set(v); !sameSet(got, nodeSet(t, st, nodes...)) {
			t.Fatalf("%s = %v, want %v", v, got, nodes)
		}
	}
}

// TestFig2bDualSimulatesX1 verifies "the graph in Fig. 2(b) dual simulates
// the graph representation of (X1)" — place is simply not a pattern node.
func TestFig2bDualSimulatesX1(t *testing.T) {
	rel := DualSimulation(fig2b(t), patternX1(), Config{})
	if rel.IsEmpty() {
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
	if rel := DualSimulation(st, patternX1(), Config{}); !rel.IsEmpty() {
		t.Fatalf("expected empty, got director=%v", rel.Set("director"))
	}
	// X1's graph as data, Fig. 2(a) as pattern: no born_in edges at all.
	st2, err := storage.FromTriples([]rdf.Triple{
		rdf.T("director", "directed", "movie"),
		rdf.T("director", "worked_with", "coworker"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rel := DualSimulation(st2, patternFig2a(), Config{}); !rel.IsEmpty() {
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
	p := NewPattern()
	p.Edge("v", "knows", "w")
	p.Edge("w", "knows", "v")

	rel := DualSimulation(st, p, Config{})
	all := nodeSet(t, st, "p1", "p2", "p3", "p4")
	if got := rel.Set("v"); !sameSet(got, all) {
		t.Fatalf("v = %v, want all four nodes", got)
	}
	if got := rel.Set("w"); !sameSet(got, all) {
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
// ?g to the constant Action restricts movies to those with genre Action.
func TestConstants(t *testing.T) {
	st := fig1a(t)
	p := NewPattern()
	p.Edge("director", "directed", "movie")
	p.Edge("movie", "genre", "g")
	p.Bind("g", rdf.NewIRI("Action"))

	rel := DualSimulation(st, p, Config{})
	if got, want := rel.Set("movie"), nodeSet(t, st, "Mission:_Impossible", "Goldfinger"); !sameSet(got, want) {
		t.Fatalf("movie = %v, want %v", got, want)
	}
	if got, want := rel.Set("g"), nodeSet(t, st, "Action"); !sameSet(got, want) {
		t.Fatalf("g = %v, want %v", got, want)
	}
}

// TestConstantAbsentFromDB: a constant that is not in the database empties
// the relation.
func TestConstantAbsentFromDB(t *testing.T) {
	st := fig1a(t)
	p := NewPattern()
	p.Edge("director", "directed", "movie")
	p.Bind("movie", rdf.NewIRI("Nonexistent_Movie"))
	if rel := DualSimulation(st, p, Config{}); !rel.IsEmpty() {
		t.Fatal("expected empty relation for absent constant")
	}
}

// TestUnknownPredicate: a predicate absent from Σ empties the incident
// variables.
func TestUnknownPredicate(t *testing.T) {
	st := fig1a(t)
	p := NewPattern()
	p.Edge("a", "no_such_predicate", "b")
	if rel := DualSimulation(st, p, Config{}); !rel.IsEmpty() {
		t.Fatal("expected empty relation for unknown predicate")
	}
}

// TestLiteralEndpoints: literals participate as objects (population).
func TestLiteralEndpoints(t *testing.T) {
	st := fig1a(t)
	p := NewPattern()
	p.Edge("city", "population", "pop")
	rel := DualSimulation(st, p, Config{})
	if got, want := rel.Set("city"), nodeSet(t, st, "Newark", "Paris", "Saint_John"); !sameSet(got, want) {
		t.Fatalf("city = %v, want %v", got, want)
	}
	if rel.Set("pop")[mustLit(t, st, "70063")] != true {
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
	p := NewPattern()
	p.Edge("a", "no_such_predicate", "b")
	p.Edge("c", "directed", "d") // separate satisfiable component
	rel := DualSimulation(st, p, Config{})
	if len(rel.Set("c")) == 0 {
		t.Fatal("component c should be non-empty")
	}
	if len(rel.Set("a")) != 0 {
		t.Fatal("component a should be empty")
	}
	if rel.IsEmpty() {
		t.Fatal("IsEmpty should not hold: component c survives")
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
	p := NewPattern()
	p.Edge("v", "knows", "v")
	rel := DualSimulation(st, p, Config{})
	if got, want := rel.Set("v"), nodeSet(t, st, "a"); !sameSet(got, want) {
		t.Fatalf("v = %v, want {a}", got)
	}
}

// TestIsCyclic covers the shape classifier used by the experiment
// harness.
func TestIsCyclic(t *testing.T) {
	if patternX1().IsCyclic() {
		t.Fatal("X1 is acyclic")
	}
	cyc := NewPattern()
	cyc.Edge("a", "p", "b")
	cyc.Edge("b", "q", "c")
	cyc.Edge("a", "r", "c")
	if !cyc.IsCyclic() {
		t.Fatal("triangle not detected")
	}
	par := NewPattern()
	par.Edge("a", "p", "b")
	par.Edge("a", "q", "b")
	if !par.IsCyclic() {
		t.Fatal("parallel edges not detected as cycle")
	}
	two := NewPattern()
	two.Edge("v", "knows", "w")
	two.Edge("w", "knows", "v")
	if !two.IsCyclic() {
		t.Fatal("2-cycle not detected")
	}
}

// TestVerifySolutionAgainstSOI: the solver's output satisfies the system
// it was built from (Sect. 4.5 PTIME validity check).
func TestVerifySolutionAgainstSOI(t *testing.T) {
	st := fig1a(t)
	p := patternX1()
	sys := BuildSystem(st, p, Config{})
	sol := sys.Solve(context.Background(), soi.Options{})
	if bad := sys.Verify(sol); bad != nil {
		t.Fatalf("solution violates %v", bad)
	}
}

// TestPatternString covers diagnostics rendering.
func TestPatternString(t *testing.T) {
	p := NewPattern()
	p.Edge("director", "directed", "movie")
	p.Bind("movie", rdf.NewIRI("Goldfinger"))
	want := "?director directed <Goldfinger> ."
	if got := p.String(); got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}
