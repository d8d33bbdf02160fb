// Package bench is the experiment harness that regenerates every table of
// the paper's evaluation section (Sect. 5) against the synthetic datasets:
//
//	Table 2 — SPARQLSIM (SOI) vs. Ma et al. (plus HHK for the §3.3
//	          data-complexity hypothesis) on the OPTIONAL-stripped B
//	          queries;
//	Table 3 — result sizes, required triples, SOI time and triples after
//	          pruning for L0–L5, D0–D5, B0–B19;
//	Table 4 — full-database vs. pruned-database evaluation times on the
//	          Volcano executor (the RDFox stand-in);
//	Table 5 — the same on the index-nested-loop oracle (the Virtuoso
//	          stand-in);
//	Iters   — per-query SOI rounds, the §5.3 convergence discussion
//	          (L0 slow / L1 two-iteration shape);
//	Orders  — heuristic vs. best vs. worst of random inequality orders,
//	          the §5.3 brute-force remark, counted in evaluations.
//
// Absolute numbers differ from the paper (their testbed: 384 GB Xeon
// server, billions of triples); the comparisons reproduce the paper's
// qualitative shape. The serving layers are measured by the benchmark
// module under benchmark/, not here.
package bench

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"dualsim/internal/baseline"
	"dualsim/internal/core"
	"dualsim/internal/datagen"
	"dualsim/internal/engine"
	"dualsim/internal/prune"
	"dualsim/internal/queries"
	"dualsim/internal/soi"
	"dualsim/internal/storage"
)

// Datasets bundles the two benchmark stores.
type Datasets struct {
	LUBM *storage.Store
	KG   *storage.Store
}

// Setup generates both datasets deterministically.
func Setup(universities, kgScale int, seed int64) (*Datasets, error) {
	lubm, err := datagen.LUBMStore(datagen.DefaultLUBM(universities, seed))
	if err != nil {
		return nil, err
	}
	kg, err := datagen.KGStore(datagen.DefaultKG(kgScale, seed))
	if err != nil {
		return nil, err
	}
	return &Datasets{LUBM: lubm, KG: kg}, nil
}

// StoreFor resolves a spec's dataset.
func (d *Datasets) StoreFor(s queries.Spec) *storage.Store {
	if s.Dataset == "lubm" {
		return d.LUBM
	}
	return d.KG
}

// timeIt runs fn repeats times and returns the minimum wall time (the
// paper averages 10 hot runs; minimum-of-k is the steadier laptop-scale
// equivalent).
func timeIt(repeats int, fn func()) time.Duration {
	if repeats < 1 {
		repeats = 1
	}
	best := time.Duration(0)
	for i := 0; i < repeats; i++ {
		start := time.Now()
		fn()
		d := time.Since(start)
		if i == 0 || d < best {
			best = d
		}
	}
	return best
}

// ---------------------------------------------------------------------------
// Table 2

// Table2Row compares the three dual simulation algorithms on one
// OPTIONAL-stripped BGP.
//
//dualsim:wire
type Table2Row struct {
	Query      string        `json:"query"`
	TSOI       time.Duration `json:"tSOI"`
	TMa        time.Duration `json:"tMa"`
	THHK       time.Duration `json:"tHHK"`
	SOIRounds  int           `json:"soiRounds"`
	MaIters    int           `json:"maIters"`
	Candidates int           `json:"candidates"` // Σ |χS(v)| of the SOI solution
}

// Table2 runs the B queries (OPTIONAL stripped, as in §5.2) through
// SPARQLSIM, Ma et al. and HHK.
func Table2(d *Datasets, repeats int) ([]Table2Row, error) {
	var rows []Table2Row
	for _, spec := range queries.BenchmarkQueries() {
		st := d.StoreFor(spec)
		stripped := queries.StripOptional(spec.Query().Expr)
		pat, err := queries.ToPattern(stripped)
		if err != nil {
			return nil, err
		}
		row := Table2Row{Query: spec.ID}

		var rel *core.Relation
		row.TSOI = timeIt(repeats, func() {
			rel = core.DualSimulation(st, pat, core.Config{})
		})
		row.SOIRounds = rel.Stats.Rounds
		for _, chi := range rel.Chi {
			row.Candidates += chi.Count()
		}

		var ma *baseline.Result
		row.TMa = timeIt(repeats, func() {
			ma = baseline.MaEtAl(st, pat)
		})
		row.MaIters = ma.Iterations

		row.THHK = timeIt(repeats, func() {
			baseline.HHK(st, pat)
		})
		rows = append(rows, row)
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Table 3

// Table3Row reports pruning effectiveness for one query.
//
//dualsim:wire
type Table3Row struct {
	Query        string        `json:"query"`
	Results      int           `json:"results"`
	ReqTriples   int           `json:"reqTriples"`
	TSOI         time.Duration `json:"tSOI"`
	AfterPruning int           `json:"afterPruning"`
	Total        int           `json:"total"`
	Rounds       int           `json:"rounds"`
}

// PrunedFraction returns the share of removed triples.
func (r Table3Row) PrunedFraction() float64 {
	if r.Total == 0 {
		return 0
	}
	return 1 - float64(r.AfterPruning)/float64(r.Total)
}

// Table3 measures result sizes, required triples, SOI runtime and
// leftover triples for every benchmark query.
func Table3(d *Datasets, repeats int) ([]Table3Row, error) {
	eng := engine.NewVolcano()
	var rows []Table3Row
	for _, spec := range queries.All() {
		st := d.StoreFor(spec)
		q := spec.Query()
		row := Table3Row{Query: spec.ID, Total: st.NumTriples()}

		var p *prune.Pruning
		var rel *core.QueryRelation
		var err error
		row.TSOI = timeIt(repeats, func() {
			p, rel, err = prune.PruneQuery(st, q, core.Config{})
		})
		if err != nil {
			return nil, err
		}
		row.AfterPruning = p.Kept
		row.Rounds = rel.Stats.Rounds

		res, err := eng.Evaluate(context.Background(), st, q)
		if err != nil {
			return nil, err
		}
		row.Results = res.Len()
		req, err := prune.RequiredCount(context.Background(), st, q, eng)
		if err != nil {
			return nil, err
		}
		row.ReqTriples = req
		rows = append(rows, row)
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Tables 4 and 5

// EngineRow compares evaluation on the full vs. the pruned database.
//
//dualsim:wire
type EngineRow struct {
	Query     string        `json:"query"`
	TDB       time.Duration `json:"tDB"`       // evaluation on the full store
	TDBPruned time.Duration `json:"tDBPruned"` // evaluation on the pruned store
	TPrune    time.Duration `json:"tPrune"`    // SPARQLSIM pruning time
	Results   int           `json:"results"`
}

// TotalPruned returns t_DB pruned + t_SPARQLSIM, the third column of
// Tables 4/5.
func (r EngineRow) TotalPruned() time.Duration { return r.TDBPruned + r.TPrune }

// EngineComparison runs every query on the full and pruned store with the
// given evaluator — Table 4 with the Volcano executor (the in-memory
// store stand-in: the planner picks hash join or index extend per join),
// Table 5 with the index-nested-loop oracle.
func EngineComparison(d *Datasets, eng engine.Engine, repeats int) ([]EngineRow, error) {
	var rows []EngineRow
	for _, spec := range queries.All() {
		st := d.StoreFor(spec)
		q := spec.Query()
		row := EngineRow{Query: spec.ID}

		var p *prune.Pruning
		var err error
		row.TPrune = timeIt(repeats, func() {
			p, _, err = prune.PruneQuery(st, q, core.Config{})
		})
		if err != nil {
			return nil, err
		}
		pruned := p.Store()

		var res *engine.Result
		row.TDB = timeIt(repeats, func() {
			res, err = eng.Evaluate(context.Background(), st, q)
		})
		if err != nil {
			return nil, err
		}
		row.Results = res.Len()
		row.TDBPruned = timeIt(repeats, func() {
			_, err = eng.Evaluate(context.Background(), pruned, q)
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Iteration shapes (§5.3)

// IterRow reports SOI convergence effort for one query.
//
//dualsim:wire
type IterRow struct {
	Query       string `json:"query"`
	Cyclic      bool   `json:"cyclic"`
	Rounds      int    `json:"rounds"`
	Evaluations int    `json:"evaluations"`
	Updates     int    `json:"updates"`
}

// IterationShapes reports the per-query round counts behind the paper's
// §5.3 discussion (L0 needs many rounds, L1 two).
func IterationShapes(d *Datasets) ([]IterRow, error) {
	var rows []IterRow
	for _, spec := range queries.All() {
		st := d.StoreFor(spec)
		rel, err := core.QueryDualSimulation(st, spec.Query(), core.Config{})
		if err != nil {
			return nil, err
		}
		rows = append(rows, IterRow{
			Query:       spec.ID,
			Cyclic:      spec.Cyclic,
			Rounds:      rel.Stats.Rounds,
			Evaluations: rel.Stats.Evaluations,
			Updates:     rel.Stats.Updates,
		})
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Order-space search (§5.3 brute-force analysis)

// OrderRow reports the evaluation-count spread over random inequality
// orders for one query's mandatory core. Every order reaches the same
// fixpoint (the largest solution is unique); only the effort differs.
//
//dualsim:wire
type OrderRow struct {
	Query                string `json:"query"`
	HeuristicEvaluations int    `json:"heuristicEvaluations"`
	BestEvaluations      int    `json:"bestEvaluations"`
	WorstEvaluations     int    `json:"worstEvaluations"`
}

// OrderSearch reproduces the paper's §5.3 brute-force remark ("the
// number of iterations may be reduced … no matter which specific
// heuristic we choose"): for the cyclic LUBM queries, it samples random
// inequality orders and reports how far the built-in heuristic is from
// the observed best and worst.
func OrderSearch(d *Datasets, trials int, seed int64) ([]OrderRow, error) {
	var rows []OrderRow
	for _, id := range []string{"L0", "L1", "L2"} {
		spec, err := queries.ByID(id)
		if err != nil {
			return nil, err
		}
		st := d.StoreFor(spec)
		pat, err := queries.ToPattern(queries.MandatoryCore(spec.Query().Expr))
		if err != nil {
			return nil, err
		}
		sys := core.BuildSystem(st, pat, core.Config{})
		stats := sys.SearchOrders(context.Background(), trials, seed, soi.Options{})
		rows = append(rows, OrderRow{
			Query:                spec.ID,
			HeuristicEvaluations: stats.HeuristicEvaluations,
			BestEvaluations:      stats.BestEvaluations,
			WorstEvaluations:     stats.WorstEvaluations,
		})
	}
	return rows, nil
}

// RenderOrderSearch formats the order-search rows.
func RenderOrderSearch(w io.Writer, rows []OrderRow) {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Query, fmt.Sprint(r.HeuristicEvaluations), fmt.Sprint(r.BestEvaluations), fmt.Sprint(r.WorstEvaluations),
		})
	}
	WriteTable(w, []string{"Query", "heuristic_evaluations", "best_evaluations", "worst_evaluations"}, cells)
}

// ---------------------------------------------------------------------------
// Rendering

// Millis formats a duration in the paper's second-resolution style.
func Millis(d time.Duration) string {
	return fmt.Sprintf("%.5f", d.Seconds())
}

// WriteTable renders an aligned text table.
func WriteTable(w io.Writer, header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
}

// RenderTable2 formats Table 2 rows.
func RenderTable2(w io.Writer, rows []Table2Row) {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Query, Millis(r.TSOI), Millis(r.TMa), Millis(r.THHK),
			fmt.Sprint(r.SOIRounds), fmt.Sprint(r.MaIters),
		})
	}
	WriteTable(w, []string{"Query", "t_SPARQLSIM", "t_MaEtAl", "t_HHK", "soi_rounds", "ma_iters"}, cells)
}

// RenderTable3 formats Table 3 rows.
func RenderTable3(w io.Writer, rows []Table3Row) {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Query, fmt.Sprint(r.Results), fmt.Sprint(r.ReqTriples),
			Millis(r.TSOI), fmt.Sprint(r.AfterPruning),
			fmt.Sprintf("%.1f%%", 100*r.PrunedFraction()),
		})
	}
	WriteTable(w, []string{"Query", "Results", "Req.Triples", "t_SPARQLSIM", "Tripl.aft.Pruning", "Pruned"}, cells)
}

// RenderEngineTable formats Table 4/5 rows.
func RenderEngineTable(w io.Writer, rows []EngineRow) {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Query, Millis(r.TDB), Millis(r.TDBPruned), Millis(r.TotalPruned()),
		})
	}
	WriteTable(w, []string{"Query", "t_DB", "t_DB_pruned", "t_DB_pruned+t_SPARQLSIM"}, cells)
}

// RenderIterations formats the iteration-shape rows.
func RenderIterations(w io.Writer, rows []IterRow) {
	var cells [][]string
	for _, r := range rows {
		shape := "acyclic"
		if r.Cyclic {
			shape = "cyclic"
		}
		cells = append(cells, []string{
			r.Query, shape, fmt.Sprint(r.Rounds), fmt.Sprint(r.Evaluations), fmt.Sprint(r.Updates),
		})
	}
	WriteTable(w, []string{"Query", "Shape", "Rounds", "Evaluations", "Updates"}, cells)
}

// DatasetSummary describes the generated stores (the §5.1 setup
// paragraph).
func DatasetSummary(w io.Writer, d *Datasets) {
	fmt.Fprintf(w, "LUBM-like: %d triples, %d nodes, %d predicates\n",
		d.LUBM.NumTriples(), d.LUBM.NumNodes(), d.LUBM.NumPreds())
	fmt.Fprintf(w, "DBpedia-like: %d triples, %d nodes, %d predicates\n",
		d.KG.NumTriples(), d.KG.NumNodes(), d.KG.NumPreds())
}
