package dualsim_test

import (
	"context"
	"fmt"
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
// execution's counters, and its stats carry the span tree.
func TestExplainAnalyzeMatchesExecution(t *testing.T) {
	db := openFig1a(t)
	ctx := context.Background()

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
	if ex.Stats.Results != len(res.Rows) {
		t.Errorf("analyze results %d, execution rows %d", ex.Stats.Results, len(res.Rows))
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
// handful of triples, not the store.
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

	tr := trace.New("query")
	ctx := trace.ContextWithSpan(context.Background(), tr.Root())
	res, stats, err := db.Query(ctx, `SELECT * WHERE { <film7> <director> ?p . ?p <bornIn> ?c . }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("rows = %d, want 1", res.Len())
	}
	sp := tr.Root().Find("prune")
	if sp == nil {
		t.Fatal("traced exec misses the prune span")
	}
	c := sp.Counters
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

// The filtered counter says what χ rejected and where. L0's core is a
// cycle, on which dual simulation is not a full reducer: the extends read
// neighbours the candidate sets then rule out. The leaf scan walks the
// kept-triple mask and so never meets a rejected triple. EXPLAIN ANALYZE
// and the op.* spans show the counter beside rows.
func TestFilteredCounter(t *testing.T) {
	st, err := dualsim.GenerateLUBMStore(3, 42)
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
