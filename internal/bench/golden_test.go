package bench

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestGoldenSolverWork pins the solver-work figures of the paper's tables
// at a small fixed setup: the iters rows, the orders rows, and the
// non-timing fields of every Table 2 row (SOI rounds, Ma et al.
// iterations, Σ|χ|). They depend only on the generated data and on how a
// query becomes a system of inequalities, so a change to the lowering
// that moves any of them shows up here. The expected text is
// testdata/setup_1_1_7.golden.
func TestGoldenSolverWork(t *testing.T) {
	d, err := Setup(1, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	iters, err := IterationShapes(d)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString("# iters: query cyclic rounds evaluations updates\n")
	for _, r := range iters {
		fmt.Fprintf(&b, "%s %v %d %d %d\n", r.Query, r.Cyclic, r.Rounds, r.Evaluations, r.Updates)
	}
	orders, err := OrderSearch(d, 40, 7)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString("# orders: query heuristic best worst\n")
	for _, r := range orders {
		fmt.Fprintf(&b, "%s %d %d %d\n", r.Query, r.HeuristicEvaluations, r.BestEvaluations, r.WorstEvaluations)
	}
	t2, err := Table2(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString("# table2: query soiRounds maIters candidates\n")
	for _, r := range t2 {
		fmt.Fprintf(&b, "%s %d %d %d\n", r.Query, r.SOIRounds, r.MaIters, r.Candidates)
	}

	want, err := os.ReadFile("testdata/setup_1_1_7.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := b.String()
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range max(len(gl), len(wl)) {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("line %d: got %q, want %q", i+1, g, w)
		}
	}
	t.Logf("got:\n%s", got)
}
