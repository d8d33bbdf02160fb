package bench

import (
	"bytes"
	"maps"
	"strings"
	"testing"
	"time"

	"dualsim/internal/baseline"
	"dualsim/internal/core"
	"dualsim/internal/engine"
	"dualsim/internal/queries"
	"dualsim/internal/sparql"
	"dualsim/internal/storage"
)

// tiny builds a minimal dataset pair once per test run.
func tiny(t *testing.T) *Datasets {
	t.Helper()
	d, err := Setup(2, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSetupAndSummary(t *testing.T) {
	d := tiny(t)
	if d.LUBM.NumTriples() == 0 || d.KG.NumTriples() == 0 {
		t.Fatal("empty datasets")
	}
	var buf bytes.Buffer
	DatasetSummary(&buf, d)
	if !strings.Contains(buf.String(), "LUBM-like") || !strings.Contains(buf.String(), "DBpedia-like") {
		t.Fatalf("summary = %q", buf.String())
	}
	lubmSpec, _ := queries.ByID("L0")
	kgSpec, _ := queries.ByID("B0")
	if d.StoreFor(lubmSpec) != d.LUBM || d.StoreFor(kgSpec) != d.KG {
		t.Fatal("StoreFor routing broken")
	}
}

func TestTable2Invariants(t *testing.T) {
	d := tiny(t)
	rows, err := Table2(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 {
		t.Fatalf("rows = %d, want 20", len(rows))
	}
	soiWins := 0
	for _, r := range rows {
		if r.TSOI <= 0 || r.TMa <= 0 || r.THHK <= 0 {
			t.Fatalf("%s: non-positive timing %+v", r.Query, r)
		}
		if r.SOIRounds < 1 || r.MaIters < 1 {
			t.Fatalf("%s: missing iteration counts", r.Query)
		}
		if r.TSOI < r.TMa {
			soiWins++
		}
	}
	// The paper's Table 2 claim: SOI outperforms Ma et al. in every
	// case. Allow a little timing noise at tiny scale, but the trend
	// must be overwhelming. Under the race detector the instrumentation
	// overhead distorts relative timings too much to assert the trend.
	if soiWins < 15 && !raceEnabled {
		t.Fatalf("SOI only faster on %d/20 queries", soiWins)
	}
	var buf bytes.Buffer
	RenderTable2(&buf, rows)
	if !strings.Contains(buf.String(), "B19") {
		t.Fatal("render lost rows")
	}
}

func TestTable3Invariants(t *testing.T) {
	d := tiny(t)
	rows, err := Table3(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 32 {
		t.Fatalf("rows = %d, want 32", len(rows))
	}
	byID := map[string]Table3Row{}
	for _, r := range rows {
		byID[r.Query] = r
		if r.AfterPruning > r.Total {
			t.Fatalf("%s: kept more than total", r.Query)
		}
		if r.ReqTriples > r.AfterPruning {
			t.Fatalf("%s: required %d > kept %d (soundness!)", r.Query, r.ReqTriples, r.AfterPruning)
		}
		spec, err := queries.ByID(r.Query)
		if err != nil {
			t.Fatal(err)
		}
		if spec.ExpectEmpty && (r.Results != 0 || r.AfterPruning != 0) {
			t.Fatalf("%s: expected empty, got %d results / %d kept", r.Query, r.Results, r.AfterPruning)
		}
		if r.PrunedFraction() < 0 || r.PrunedFraction() > 1 {
			t.Fatalf("%s: fraction %f", r.Query, r.PrunedFraction())
		}
	}
	// The paper's L1 over-retention: leftover triples strictly exceed
	// the required ones.
	if l1 := byID["L1"]; l1.AfterPruning <= l1.ReqTriples {
		t.Fatalf("L1 should over-retain: kept %d, required %d", l1.AfterPruning, l1.ReqTriples)
	}
	var buf bytes.Buffer
	RenderTable3(&buf, rows)
	if !strings.Contains(buf.String(), "Pruned") {
		t.Fatal("render header missing")
	}
}

func TestEngineComparisonInvariants(t *testing.T) {
	d := tiny(t)
	for _, eng := range []engine.Engine{engine.NewVolcano(), engine.NewIndexNL()} {
		rows, err := EngineComparison(d, eng, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 32 {
			t.Fatalf("%s: rows = %d", eng.Name(), len(rows))
		}
		for _, r := range rows {
			if r.TotalPruned() != r.TDBPruned+r.TPrune {
				t.Fatalf("%s/%s: TotalPruned arithmetic", eng.Name(), r.Query)
			}
		}
		var buf bytes.Buffer
		RenderEngineTable(&buf, rows)
		if !strings.Contains(buf.String(), "t_DB_pruned") {
			t.Fatal("render header missing")
		}
	}
}

func TestIterationShapesInvariants(t *testing.T) {
	d := tiny(t)
	rows, err := IterationShapes(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 32 {
		t.Fatalf("rows = %d", len(rows))
	}
	maxCyclic, maxAcyclic := 0, 0
	for _, r := range rows {
		if r.Rounds < 1 || r.Evaluations < r.Rounds {
			t.Fatalf("%s: implausible stats %+v", r.Query, r)
		}
		if r.Cyclic && r.Rounds > maxCyclic {
			maxCyclic = r.Rounds
		}
		if !r.Cyclic && r.Rounds > maxAcyclic {
			maxAcyclic = r.Rounds
		}
	}
	// §5.3: the cyclic LUBM queries drive the iteration maximum.
	if maxCyclic < maxAcyclic {
		t.Fatalf("cyclic max %d < acyclic max %d", maxCyclic, maxAcyclic)
	}
	var buf bytes.Buffer
	RenderIterations(&buf, rows)
	if !strings.Contains(buf.String(), "cyclic") {
		t.Fatal("render missing shapes")
	}
}

func TestOrderSearchInvariants(t *testing.T) {
	d := tiny(t)
	rows, err := OrderSearch(d, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.BestEvaluations < 1 || r.BestEvaluations > r.HeuristicEvaluations || r.HeuristicEvaluations > r.WorstEvaluations {
			t.Fatalf("%s: want 1 <= best <= heuristic <= worst evaluations, got %+v", r.Query, r)
		}
	}
	var buf bytes.Buffer
	RenderOrderSearch(&buf, rows)
	if !strings.Contains(buf.String(), "best_evaluations") {
		t.Fatal("render header missing")
	}
}

func TestWriteTableAlignment(t *testing.T) {
	var buf bytes.Buffer
	WriteTable(&buf, []string{"a", "long-header"}, [][]string{{"xx", "y"}, {"z", "wwwwwwwwwwww"}})
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[1], "--") {
		t.Fatalf("separator missing: %q", lines[1])
	}
}

func TestMillis(t *testing.T) {
	if got := Millis(1230 * time.Microsecond); got != "0.00123" {
		t.Fatalf("Millis = %q", got)
	}
}

// TestParseAll guards the tables' inputs: every spec they iterate over
// must parse.
func TestParseAll(t *testing.T) {
	for _, s := range queries.All() {
		if _, err := sparql.Parse(s.Text); err != nil {
			t.Fatalf("%s: %v", s.ID, err)
		}
	}
}

// TestStripOptionalQuery pins the Table 2 input preparation: B0 with its
// OPTIONAL flattened keeps all three triple patterns as pattern edges of
// one branch.
func TestStripOptionalQuery(t *testing.T) {
	spec, _ := queries.ByID("B0")
	q := &sparql.Query{Expr: queries.StripOptional(spec.Query().Expr)}
	empty, err := storage.FromTriples(nil)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.BuildQueryPlan(empty, q, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Branches) != 1 || len(plan.Branches[0].Edges) != 3 {
		t.Fatalf("%d branches, want 1 with 3 edges (2 mandatory + 1 formerly optional)", len(plan.Branches))
	}
}

// TestTable2AlgorithmsAgree checks the agreement Table 2 presumes on the
// paper's own queries: for every OPTIONAL-stripped B query, SOI, Ma et
// al. and HHK compute the same relation, variable by variable, its size
// is the row's Σ|χ|, and it passes the Definition-2 check.
func TestTable2AlgorithmsAgree(t *testing.T) {
	d := tiny(t)
	rows, err := Table2(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range queries.BenchmarkQueries() {
		st := d.StoreFor(spec)
		q := &sparql.Query{Expr: queries.StripOptional(spec.Query().Expr)}
		rel, err := core.QueryDualSimulation(st, q, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		bs := rel.Branches[0]
		sets := make([]map[storage.NodeID]bool, len(bs.Sol.Chi))
		total := 0
		for v, chi := range bs.Sol.Chi {
			sets[v] = make(map[storage.NodeID]bool, chi.Count())
			chi.ForEach(func(n int) bool { sets[v][storage.NodeID(n)] = true; return true })
			total += len(sets[v])
		}
		if total != rows[i].Candidates {
			t.Fatalf("%s: Σ|χ| = %d, Table 2 row says %d", spec.ID, total, rows[i].Candidates)
		}
		for name, res := range map[string]*baseline.Result{
			"Ma et al.": baseline.MaEtAl(st, bs.Branch),
			"HHK":       baseline.HHK(st, bs.Branch),
		} {
			for v := range sets {
				if !maps.Equal(sets[v], res.Sim[v]) {
					t.Fatalf("%s: %s differs from SOI on %s: %d vs %d nodes",
						spec.ID, name, bs.Branch.Vars[v].Name, len(res.Sim[v]), len(sets[v]))
				}
			}
		}
		if err := bs.Branch.VerifyDualSimulation(st, sets); err != nil {
			t.Fatalf("%s: %v", spec.ID, err)
		}
	}
}
