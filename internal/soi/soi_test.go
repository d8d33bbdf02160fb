package soi

import (
	"context"
	"strings"
	"testing"

	"dualsim/internal/bitmat"
	"dualsim/internal/bitvec"
)

// fig3System hand-builds the system of Fig. 3: the SOI characterizing the
// largest dual simulation between the pattern of Fig. 2(a) and the data
// graph of Fig. 2(b).
//
// Data graph Fig. 2(b), node order: 0=place, 1=director, 2=coworker,
// 3=movie. Edges: director -born_in-> place, director -worked_with->
// coworker, director -directed-> movie.
func fig3System() (*System, map[string]Var) {
	n := 4
	born := bitmat.NewPair(n, []bitmat.Cell{{Row: 1, Col: 0}})
	worked := bitmat.NewPair(n, []bitmat.Cell{{Row: 1, Col: 2}})
	directed := bitmat.NewPair(n, []bitmat.Cell{{Row: 1, Col: 3}})

	s := NewSystem(n)
	vars := map[string]Var{}
	for _, name := range []string{"place", "director1", "director2", "coworker", "movie"} {
		vars[name] = s.AddVar(name, nil, true)
	}
	// Pattern Fig. 2(a): director1 -born_in-> place, director2 -born_in->
	// place, director1 -worked_with-> coworker, director2 -directed->
	// movie.
	s.AddEdge(vars["director1"], vars["place"], born, "born_in")
	s.AddEdge(vars["director2"], vars["place"], born, "born_in")
	s.AddEdge(vars["director1"], vars["coworker"], worked, "worked_with")
	s.AddEdge(vars["director2"], vars["movie"], directed, "directed")
	return s, vars
}

// TestFig3LargestSolution reproduces the paper's relation (1): the
// largest solution of the Fig. 3 SOI.
func TestFig3LargestSolution(t *testing.T) {
	s, vars := fig3System()
	sol := s.Solve(context.Background(), Options{})

	want := map[string][]int{
		"place":     {0},
		"director1": {1},
		"director2": {1},
		"coworker":  {2},
		"movie":     {3},
	}
	for name, nodes := range want {
		got := sol.Chi[vars[name]]
		expect := bitvec.FromBits(4, nodes...)
		if !got.Equal(expect) {
			t.Fatalf("χ(%s) = %v, want %v", name, got, expect)
		}
	}
	if bad := s.Verify(sol); bad != nil {
		t.Fatalf("solution violates %v", bad)
	}
	if sol.Stats.Rounds == 0 || sol.Stats.Evaluations == 0 {
		t.Fatal("stats not recorded")
	}
}

// TestAllOptionsSameFixpoint: every strategy/order combination reaches
// the same largest solution.
func TestAllOptionsSameFixpoint(t *testing.T) {
	ref, _ := fig3System()
	want := ref.Solve(context.Background(), Options{})
	for _, strat := range []bitmat.Strategy{bitmat.Auto, bitmat.RowWise, bitmat.ColWise} {
		for _, ord := range []Order{SparsestFirst, DeclarationOrder} {
			s, _ := fig3System()
			sol := s.Solve(context.Background(), Options{Strategy: strat, Order: ord})
			for v := range want.Chi {
				if !sol.Chi[v].Equal(want.Chi[v]) {
					t.Fatalf("strategy %v order %v: χ(x%d) differs", strat, ord, v)
				}
			}
		}
	}
}

// TestCopyInequality: x ≤ y propagates shrinkage from y to x but never
// the other way.
func TestCopyInequality(t *testing.T) {
	n := 4
	s := NewSystem(n)
	y := s.AddVar("y", bitvec.FromBits(n, 0, 1), true)
	x := s.AddVar("x", nil, false)
	s.AddCopy(x, y)
	sol := s.Solve(context.Background(), Options{})
	if !sol.Chi[x].Equal(bitvec.FromBits(n, 0, 1)) {
		t.Fatalf("χ(x) = %v", sol.Chi[x])
	}
	if !sol.Chi[y].Equal(bitvec.FromBits(n, 0, 1)) {
		t.Fatalf("χ(y) = %v", sol.Chi[y])
	}
}

// TestSelfLoopEdgeConverges: an edge inequality with X == Y (self-loop
// pattern) must keep re-evaluating itself until the fixpoint.
func TestSelfLoopEdgeConverges(t *testing.T) {
	// Data: a chain 0->1->2->3 (no cycle), so a self-loop pattern
	// variable must become empty — but no single evaluation can see that:
	// each one only removes the nodes whose partner the previous one
	// removed (3 has no successor, then 2, …).
	n := 4
	chain := bitmat.NewPair(n, []bitmat.Cell{{Row: 0, Col: 1}, {Row: 1, Col: 2}, {Row: 2, Col: 3}})
	s := NewSystem(n)
	v := s.AddVar("v", nil, true)
	s.AddEdge(v, v, chain, "next")
	sol := s.Solve(context.Background(), Options{})
	if !sol.Chi[v].IsEmpty() {
		t.Fatalf("χ(v) = %v, want empty (chain has no cycle)", sol.Chi[v])
	}
	if bad := s.Verify(sol); bad != nil {
		t.Fatalf("fixpoint violates %v", bad)
	}
	// An inequality is evaluated a second time only when it was
	// destabilized again — here by an update of v, the variable on its own
	// right-hand side.
	if sol.Stats.Rounds < 2 {
		t.Fatalf("stats = %+v; a self-loop inequality must be re-evaluated after its own update", sol.Stats)
	}
}

// TestSelfLoopCycleKept: with a data cycle, the cycle nodes survive.
func TestSelfLoopCycleKept(t *testing.T) {
	n := 5
	cyc := bitmat.NewPair(n, []bitmat.Cell{
		{Row: 0, Col: 1}, {Row: 1, Col: 0}, // 2-cycle
		{Row: 2, Col: 3}, {Row: 3, Col: 4}, // dead-end chain
	})
	s := NewSystem(n)
	v := s.AddVar("v", nil, true)
	s.AddEdge(v, v, cyc, "next")
	sol := s.Solve(context.Background(), Options{})
	if !sol.Chi[v].Equal(bitvec.FromBits(n, 0, 1)) {
		t.Fatalf("χ(v) = %v, want {0, 1}", sol.Chi[v])
	}
}

// TestShortCircuitOnInitialEmpty: a required variable with an empty
// initial bound short-circuits immediately.
func TestShortCircuitOnInitialEmpty(t *testing.T) {
	s := NewSystem(3)
	s.AddVar("v", bitvec.New(3), true)
	sol := s.Solve(context.Background(), Options{ShortCircuit: true})
	if !sol.Stats.ShortCircuited {
		t.Fatal("expected short circuit")
	}
	if !sol.EmptyRequired(s) {
		t.Fatal("EmptyRequired should hold")
	}
}

// TestShortCircuitIgnoresOptionalVars: an empty non-required variable
// does not short-circuit.
func TestShortCircuitIgnoresOptionalVars(t *testing.T) {
	s := NewSystem(3)
	s.AddVar("opt", bitvec.New(3), false)
	s.AddVar("mand", nil, true)
	sol := s.Solve(context.Background(), Options{ShortCircuit: true})
	if sol.Stats.ShortCircuited {
		t.Fatal("optional emptiness must not short-circuit")
	}
	if sol.EmptyRequired(s) {
		t.Fatal("no required variable is empty")
	}
}

// TestVerifyDetectsViolations: Verify flags a manually broken solution.
func TestVerifyDetectsViolations(t *testing.T) {
	s, vars := fig3System()
	sol := s.Solve(context.Background(), Options{})
	// Break it: claim node 2 (coworker) also simulates place.
	sol.Chi[vars["place"]].Set(2)
	bad := s.Verify(sol)
	if bad == nil {
		t.Fatal("Verify accepted a broken solution")
	}
	if bad.Kind == Copy {
		t.Fatal("violation should be an edge inequality")
	}
	// Break a copy inequality.
	s2 := NewSystem(3)
	y := s2.AddVar("y", bitvec.FromBits(3, 0), true)
	x := s2.AddVar("x", nil, false)
	s2.AddCopy(x, y)
	sol2 := s2.Solve(context.Background(), Options{})
	sol2.Chi[x].Set(2)
	if bad := s2.Verify(sol2); bad == nil || bad.Kind != Copy {
		t.Fatalf("copy violation not detected: %v", bad)
	}
}

// TestIneqString covers the diagnostics.
func TestIneqString(t *testing.T) {
	s, _ := fig3System()
	var edge, cp string
	for _, iq := range s.Ineqs() {
		if iq.Kind == Edge && edge == "" {
			edge = iq.String()
		}
	}
	s2 := NewSystem(2)
	a := s2.AddVar("a", nil, true)
	b := s2.AddVar("b", nil, true)
	s2.AddCopy(a, b)
	cp = s2.Ineqs()[0].String()
	if !strings.Contains(edge, "×b") || !strings.Contains(cp, "≤") {
		t.Fatalf("diagnostics broken: %q / %q", edge, cp)
	}
}

// TestSolveIsRepeatable: solving the same system twice yields the same
// solution (the system is not consumed).
func TestSolveIsRepeatable(t *testing.T) {
	s, _ := fig3System()
	a := s.Solve(context.Background(), Options{})
	b := s.Solve(context.Background(), Options{Strategy: bitmat.ColWise})
	for v := range a.Chi {
		if !a.Chi[v].Equal(b.Chi[v]) {
			t.Fatalf("second solve differs at x%d", v)
		}
	}
}

// TestAccessors covers the small read surface.
func TestAccessors(t *testing.T) {
	s, vars := fig3System()
	if s.Dim() != 4 {
		t.Fatalf("Dim = %d", s.Dim())
	}
	if s.NumVars() != 5 {
		t.Fatalf("NumVars = %d", s.NumVars())
	}
	if s.NumIneqs() != 8 { // Fig. 3 lists exactly 8 inequalities
		t.Fatalf("NumIneqs = %d, want 8", s.NumIneqs())
	}
	if s.VarName(vars["movie"]) != "movie" {
		t.Fatal("VarName broken")
	}
}

// TestConstrainInit: layered bounds intersect.
func TestConstrainInit(t *testing.T) {
	s := NewSystem(4)
	v := s.AddVar("v", nil, true)
	s.ConstrainInit(v, bitvec.FromBits(4, 0, 1, 2))
	s.ConstrainInit(v, bitvec.FromBits(4, 1, 2, 3))
	sol := s.Solve(context.Background(), Options{})
	if !sol.Chi[v].Equal(bitvec.FromBits(4, 1, 2)) {
		t.Fatalf("χ(v) = %v", sol.Chi[v])
	}
}

// TestRestrictValidation: a Restrict that does not fit the system is a
// caller bug and must surface as a descriptive error, not be silently
// dropped (the old behavior ignored entries beyond NumVars()).
func TestRestrictValidation(t *testing.T) {
	s, vars := fig3System()

	// Too many entries: one per variable plus one.
	over := make([]*bitvec.Vector, s.NumVars()+1)
	over[s.NumVars()] = bitvec.NewFull(s.Dim())
	if _, err := s.SolveCtx(context.Background(), Options{Restrict: over}); err == nil ||
		!strings.Contains(err.Error(), "Restrict") {
		t.Fatalf("oversized Restrict: err = %v, want descriptive error", err)
	}

	// Wrong vector length.
	bad := make([]*bitvec.Vector, s.NumVars())
	bad[vars["movie"]] = bitvec.NewFull(s.Dim() + 3)
	if _, err := s.SolveCtx(context.Background(), Options{Restrict: bad}); err == nil ||
		!strings.Contains(err.Error(), "length") {
		t.Fatalf("mis-sized Restrict entry: err = %v, want descriptive error", err)
	}

	// A well-formed restrict (even shorter than NumVars) still works and
	// tightens the solution.
	ok := []*bitvec.Vector{bitvec.New(s.Dim())} // empty bound for "place"
	sol, err := s.SolveCtx(context.Background(), Options{Restrict: ok})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Chi[vars["place"]].IsEmpty() {
		t.Fatalf("χ(place) = %v, want empty under empty restrict", sol.Chi[vars["place"]])
	}
}

// TestDeterministicOrdering: the cheapest-first key is a total order
// (ties broken by empty-column count, then inequality index), so repeated
// solves report
// identical effort — plans and their ExecStats.Rounds are reproducible
// run-to-run.
func TestDeterministicOrdering(t *testing.T) {
	ref, _ := fig3System()
	want := ref.Solve(context.Background(), Options{})
	for i := 0; i < 20; i++ {
		s, _ := fig3System()
		sol := s.Solve(context.Background(), Options{})
		if sol.Stats != want.Stats {
			t.Fatalf("solve %d effort drifted: %+v vs %+v", i, sol.Stats, want.Stats)
		}
	}
}

// TestSolutionRelease: Release is idempotent, nil-safe, and recycles the
// χ storage — steady-state Solve+Release performs near-zero allocation.
func TestSolutionRelease(t *testing.T) {
	var nilSol *Solution
	nilSol.Release() // must not panic

	s, vars := fig3System()
	sol := s.Solve(context.Background(), Options{})
	if !sol.Chi[vars["movie"]].Equal(bitvec.FromBits(4, 3)) {
		t.Fatalf("pre-release solution wrong: %v", sol.Chi[vars["movie"]])
	}
	sol.Release()
	sol.Release() // idempotent
	if sol.Chi != nil {
		t.Fatal("Chi must be nil after Release")
	}

	// The next solve reuses the pooled workspace and computes the same
	// fixpoint.
	again := s.Solve(context.Background(), Options{})
	if !again.Chi[vars["movie"]].Equal(bitvec.FromBits(4, 3)) {
		t.Fatalf("post-release solution wrong: %v", again.Chi[vars["movie"]])
	}
	again.Release()

	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	allocs := testing.AllocsPerRun(100, func() {
		sol := s.Solve(context.Background(), Options{})
		sol.Release()
	})
	// Steady state allocates only per-solve bookkeeping (the Solution
	// header) — not χ rows, counts, scratch or the worklist.
	if allocs > 8 {
		t.Errorf("Solve+Release steady state: %.1f allocs/op, want <= 8 (workspace not pooled?)", allocs)
	}
}

// TestMismatchedInitPanics guards the dimension contract.
func TestMismatchedInitPanics(t *testing.T) {
	s := NewSystem(4)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on wrong init length")
		}
	}()
	s.AddVar("v", bitvec.New(5), true)
}
