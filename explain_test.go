package dualsim_test

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"dualsim"
	"dualsim/internal/queries"
	"dualsim/internal/trace"
)

func openFig1a(t *testing.T, opts ...dualsim.Option) *dualsim.DB {
	t.Helper()
	st, err := dualsim.FromTriples(queries.Fig1aTriples())
	if err != nil {
		t.Fatal(err)
	}
	db, err := dualsim.Open(st, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

const explainSrc = `SELECT * WHERE { ?d <directed> ?m . ?m <genre> ?g . }`

// EXPLAIN must be deterministic: the same query against the same epoch
// renders the same text, whether the plan came fresh or from the cache.
func TestExplainDeterministic(t *testing.T) {
	db := openFig1a(t, dualsim.WithPlanCache(8))
	ctx := context.Background()

	first, err := db.Explain(ctx, explainSrc)
	if err != nil {
		t.Fatal(err)
	}
	if first.Analyzed {
		t.Fatalf("plain EXPLAIN claims analyzed")
	}
	if len(first.Operators) == 0 {
		t.Fatalf("EXPLAIN reported no operators")
	}
	text := first.Text()
	if !strings.Contains(text, "-- epoch 0") {
		t.Errorf("render misses the epoch header:\n%s", text)
	}
	if strings.Contains(text, "[rows=") {
		t.Errorf("plain EXPLAIN rendered executed counters:\n%s", text)
	}

	// Execute once so the second explain resolves a cached plan.
	if _, _, err := db.Query(ctx, explainSrc); err != nil {
		t.Fatal(err)
	}
	second, err := db.Explain(ctx, explainSrc)
	if err != nil {
		t.Fatal(err)
	}
	if got := second.Text(); got != text {
		t.Errorf("cached-plan explain differs:\nfirst:\n%s\nsecond:\n%s", text, got)
	}
}

// EXPLAIN ANALYZE reports the executed plan: its operator rows are the
// execution's counters, and its stats carry the span tree. A plain
// EXPLAIN shows that same plan — the one costed through the solved dual
// simulation — with the same estimates.
func TestExplainAnalyzeMatchesExecution(t *testing.T) {
	db := openFig1a(t)
	ctx := context.Background()

	plain, err := db.Explain(ctx, explainSrc)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := db.ExplainAnalyze(ctx, explainSrc)
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Analyzed || ex.Stats == nil {
		t.Fatalf("ExplainAnalyze: Analyzed=%v Stats=%v", ex.Analyzed, ex.Stats)
	}
	if len(ex.Operators) != len(ex.Stats.Operators) {
		t.Fatalf("operator lists diverge: %d vs %d", len(ex.Operators), len(ex.Stats.Operators))
	}
	if len(plain.Operators) != len(ex.Operators) {
		t.Fatalf("EXPLAIN has %d operators, ANALYZE %d", len(plain.Operators), len(ex.Operators))
	}
	for i, op := range plain.Operators {
		if got := ex.Operators[i]; got.Op != op.Op || got.Detail != op.Detail || got.EstRows != op.EstRows {
			t.Errorf("operator %d: EXPLAIN %s %s (est %v), ANALYZE %s %s (est %v)",
				i, op.Op, op.Detail, op.EstRows, got.Op, got.Detail, got.EstRows)
		}
	}
	// A plain re-execution of the same query must reproduce the analyzed
	// row counts — they are real counters, not estimates.
	res, stats, err := db.Query(ctx, explainSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Operators) != len(ex.Operators) {
		t.Fatalf("re-execution has %d operators, analyze had %d", len(stats.Operators), len(ex.Operators))
	}
	for i, op := range ex.Operators {
		if got := stats.Operators[i]; got.Op != op.Op || got.Rows != op.Rows {
			t.Errorf("operator %d: analyze %s rows=%d, execution %s rows=%d",
				i, op.Op, op.Rows, got.Op, got.Rows)
		}
	}
	if ex.Stats.Results != res.Len() {
		t.Errorf("analyze results %d, execution rows %d", ex.Stats.Results, res.Len())
	}
	if sp := ex.Stats.Trace; sp == nil || sp.Find("evaluate") == nil {
		t.Errorf("analyze stats carry no evaluate span: %+v", ex.Stats.Trace)
	}
	if !strings.Contains(ex.Text(), "[rows=") {
		t.Errorf("analyzed render misses executed counters:\n%s", ex.Text())
	}
}

// A traced execution hangs parse/plan, pipeline-stage and per-operator
// spans under the caller's span; an untraced one leaves no residue.
func TestExecSpanTree(t *testing.T) {
	db := openFig1a(t, dualsim.WithPlanCache(8))
	ctx := context.Background()

	tr := trace.New("query")
	tctx := trace.ContextWithSpan(ctx, tr.Root())
	if _, _, err := db.Query(tctx, explainSrc); err != nil {
		t.Fatal(err)
	}
	root := tr.Root()
	for _, name := range []string{"parse", "plan", "prune", "evaluate"} {
		if root.Find(name) == nil {
			t.Errorf("traced exec misses span %q", name)
		}
	}
	ev := root.Find("evaluate")
	if len(ev.Children) == 0 {
		t.Errorf("evaluate span has no operator children")
	}
	if ev.Counters["out"] == 0 {
		t.Errorf("evaluate span reports no output rows: %+v", ev.Counters)
	}

	// On a UNION with an OPTIONAL branch, two levels deep and more, the
	// op.* spans under evaluate have the shape of the EXPLAIN render.
	const nested = `SELECT * WHERE {
	  { ?d <directed> ?m . OPTIONAL { ?d <worked_with> ?c . } }
	  UNION { ?d <awarded> ?a . ?d <born_in> ?p . } }`
	ex, err := db.Explain(ctx, nested)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(strings.TrimSuffix(ex.Text(), "\n"), "\n") {
		if !strings.HasPrefix(line, "--") {
			want = append(want, strings.Fields(line)[0]+"@"+fmt.Sprint((len(line)-len(strings.TrimLeft(line, " ")))/2))
		}
	}
	tr3 := trace.New("query")
	if _, _, err := db.Query(trace.ContextWithSpan(ctx, tr3.Root()), nested); err != nil {
		t.Fatal(err)
	}
	var got []string
	var walk func(sp *trace.Span, depth int)
	walk = func(sp *trace.Span, depth int) {
		for _, c := range sp.Children {
			if name, ok := strings.CutPrefix(c.Name, "op."); ok {
				got = append(got, name+"@"+fmt.Sprint(depth))
				walk(c, depth+1)
			}
		}
	}
	walk(tr3.Root().Find("evaluate"), 0)
	if !slices.Equal(got, want) {
		t.Errorf("span tree %v, EXPLAIN tree %v\n%s", got, want, ex.Text())
	}
	if !slices.ContainsFunc(want, func(s string) bool { return strings.HasSuffix(s, "@2") }) {
		t.Errorf("plan is less than three levels deep:\n%s", ex.Text())
	}

	// Second run hits the plan cache: the plan span must say so.
	tr2 := trace.New("query")
	if _, _, err := db.Query(trace.ContextWithSpan(ctx, tr2.Root()), explainSrc); err != nil {
		t.Fatal(err)
	}
	if pl := tr2.Root().Find("plan"); pl == nil || pl.Attrs["cached"] != "true" {
		t.Errorf("cached-plan span = %+v", pl)
	}

	// Untraced: no trace in the stats, no per-operator timing.
	_, stats, err := db.Query(ctx, explainSrc)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Trace != nil {
		t.Errorf("untraced exec produced a trace")
	}
	// NextCalls is a plain counter and always on; the per-operator clock
	// is the costly part and must stay off without a span.
	for _, op := range stats.Operators {
		if op.Time != 0 {
			t.Errorf("untraced exec timed operator %s: %+v", op.Op, op)
		}
	}
}

// The prune span of a traced execution says what the solver did, and on
// a constant-anchored query the χ-driven mask walk tests the constant's
// handful of triples, not the store. A reused execution's span says where
// its χ came from: the stored solve, whose counters it repeats.
func TestPruneSpanReportsSolverWork(t *testing.T) {
	var ts []dualsim.Triple
	for i := 0; i < 500; i++ {
		ts = append(ts,
			dualsim.T(fmt.Sprintf("film%d", i), "director", fmt.Sprintf("person%d", i%50)),
			dualsim.T(fmt.Sprintf("person%d", i%50), "bornIn", fmt.Sprintf("city%d", i%50%7)))
	}
	st, err := dualsim.FromTriples(ts)
	if err != nil {
		t.Fatal(err)
	}
	db, err := dualsim.Open(st)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	pq, err := db.Prepare(`SELECT * WHERE { <film7> <director> ?p . ?p <bornIn> ?c . }`)
	if err != nil {
		t.Fatal(err)
	}
	// The second execution reuses the first one's view: its prune span
	// says so and carries the stored solve's counters unchanged.
	var first map[string]int64
	for i, reused := range []bool{false, true} {
		tr := trace.New("query")
		ctx := trace.ContextWithSpan(context.Background(), tr.Root())
		res, stats, err := pq.Exec(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 1 {
			t.Fatalf("execution %d: rows = %d, want 1", i, res.Len())
		}
		if stats.Reused != reused {
			t.Errorf("execution %d: Reused = %v, want %v", i, stats.Reused, reused)
		}
		sp := tr.Root().Find("prune")
		if sp == nil {
			t.Fatalf("execution %d: traced exec misses the prune span", i)
		}
		if got := sp.Attrs["reused"] == "true"; got != reused {
			t.Errorf("execution %d: prune span attrs %v, want reused=%v", i, sp.Attrs, reused)
		}
		c := sp.Counters
		if !reused {
			first = c
		} else if !maps.Equal(c, first) {
			t.Errorf("reused execution's prune counters %v, the solving one's %v", c, first)
		}
		if c["chi.init"] <= c["chi.final"] || c["chi.final"] != 3 {
			t.Errorf("chi.init %d → chi.final %d, want a decay to the 3 matched nodes", c["chi.init"], c["chi.final"])
		}
		if evals := c["eval.rowwise"] + c["eval.colwise"] + c["eval.copy"]; evals == 0 || evals > int64(stats.Solver.Evaluations) {
			t.Errorf("eval.* = %+v against %d evaluations", c, stats.Solver.Evaluations)
		}
		if c["in"] != int64(st.NumTriples()) || c["mask.visited"] == 0 || c["mask.visited"]*50 > c["in"] {
			t.Errorf("mask.visited = %d of in = %d; the walk must stay with the candidates", c["mask.visited"], c["in"])
		}
	}
}

// The filtered counter says what χ rejected and where. L0's core is a
// cycle, on which dual simulation is not a full reducer: the extends read
// neighbours the candidate sets then rule out. The leaf scan walks the
// kept-triple mask and so never meets a rejected triple. EXPLAIN ANALYZE
// and the op.* spans show the counter beside rows.
func TestFilteredCounter(t *testing.T) {
	st, err := dualsim.FromTriples(dualsim.GenerateLUBM(3, 42))
	if err != nil {
		t.Fatal(err)
	}
	db, err := dualsim.Open(st)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	l0, err := queries.ByID("L0")
	if err != nil {
		t.Fatal(err)
	}
	ex, err := db.ExplainAnalyze(context.Background(), l0.Text)
	if err != nil {
		t.Fatal(err)
	}
	var rejected int64
	for _, op := range ex.Operators {
		switch {
		case op.Op == "scan" && op.Filtered != 0:
			t.Errorf("leaf scan %s reports filtered=%d; it reads kept positions only", op.Detail, op.Filtered)
		case strings.HasPrefix(op.Op, "extend"):
			rejected += op.Filtered
		}
	}
	if rejected == 0 {
		t.Fatalf("no extend of L0 reports a filtered neighbour:\n%s", ex.Text())
	}
	if !strings.Contains(ex.Text(), " filtered=") {
		t.Errorf("analyzed render misses the filtered counter:\n%s", ex.Text())
	}
	var spanned int64
	var walk func(sp *trace.Span)
	walk = func(sp *trace.Span) {
		if strings.HasPrefix(sp.Name, "op.") {
			spanned += sp.Counters["filtered"]
		}
		for _, c := range sp.Children {
			walk(c)
		}
	}
	walk(ex.Stats.Trace)
	if spanned != rejected {
		t.Errorf("op.* spans report filtered=%d, the operators %d", spanned, rejected)
	}
}

// TestExplainNamesElisions: EXPLAIN names every pattern that reads the
// store without the dual-simulation filter because the filter keeps
// every triple of its predicate. On D0 the filter keeps every director
// triple; L3 has no such pattern. A pair side that holds every neighbour
// is a fact of the solution the executor honours for every plan, so it
// is no plan decision and EXPLAIN names none. Without pruning there is
// no filter and nothing to elide.
func TestExplainNamesElisions(t *testing.T) {
	lubm, err := dualsim.FromTriples(dualsim.GenerateLUBM(1, 42))
	if err != nil {
		t.Fatal(err)
	}
	kg, err := dualsim.FromTriples(dualsim.GenerateKG(1, 42))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, c := range []struct {
		id   string
		st   *dualsim.Store
		want []string
	}{
		{"L3", lubm, nil},
		{"D0", kg, []string{"unfiltered <dbo:director> (keeps all)"}},
	} {
		spec, err := queries.ByID(c.id)
		if err != nil {
			t.Fatal(err)
		}
		db := open(t, c.st)
		ex, err := db.Explain(ctx, spec.Text)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(ex.Decisions, c.want) {
			t.Errorf("%s: decisions %q, want %q", c.id, ex.Decisions, c.want)
		}
		for _, d := range c.want {
			if !strings.Contains(ex.Text(), "-- "+d+"\n") {
				t.Errorf("%s: the render misses %q:\n%s", c.id, d, ex.Text())
			}
		}
		analyzed, err := db.ExplainAnalyze(ctx, spec.Text)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(analyzed.Decisions, c.want) {
			t.Errorf("%s: analyzed decisions %q, want %q", c.id, analyzed.Decisions, c.want)
		}
		unpruned, err := open(t, c.st, dualsim.WithPruning(false)).Explain(ctx, spec.Text)
		if err != nil {
			t.Fatal(err)
		}
		if len(unpruned.Decisions) != 0 {
			t.Errorf("%s without pruning: decisions %q, want none", c.id, unpruned.Decisions)
		}
	}
}
