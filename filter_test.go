package dualsim_test

import (
	"context"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"dualsim"
	"dualsim/internal/core"
	"dualsim/internal/engine"
	"dualsim/internal/plan"
	"dualsim/internal/proptest"
	"dualsim/internal/prune"
	"dualsim/internal/queries"
	"dualsim/internal/rdf"
	"dualsim/internal/sparql"
	"dualsim/internal/storage"
)

// The session executes on the unpruned store seen through the solved χ
// (pipeline.go); these tests pin that view to the materialized pruned
// store it replaced.

// filterRegressionSeeds are replayed before anything else. No real
// counterexample has been found yet; these three are the seeds on which a
// deliberately broken filter first differed from the materialized store —
// one per read the executor changed — so each read keeps a witness however
// the exploration seeds fall.
var filterRegressionSeeds = []int64{
	-7763051427256989185, // extend: neighbours not tested against χ
	2591857096295729149,  // extend: bound endpoint not tested against χ
	-7285804969061085828, // closing edge: found in the row, keep not consulted
}

// filterShapes counts, over a property run, the query shapes the filtered
// executor treats specially, so a drifting generator cannot hollow the
// property out.
type filterShapes struct {
	selfLoop    int // ?x p ?x
	sharedPred  int // one predicate under two pattern edges: a filter with two pairs
	emptyBranch int // a UNION with a provably empty branch beside a live one
	closing     int // an edge whose both ends an earlier edge of its BGP binds
	wellDesign  int // compared against the unpruned session as well
	samePlan    int // compared operator by operator
}

func randomFilterTerm(r *rand.Rand, vars int) sparql.Term {
	if r.Intn(6) == 0 {
		// n6 and n7 are not in the store: a constant that resolves to nothing.
		return sparql.C(fmt.Sprintf("n%d", r.Intn(8)))
	}
	return sparql.V(fmt.Sprintf("v%d", r.Intn(vars)))
}

// randomFilterQuery draws AND / OPTIONAL / UNION over BGPs of one to three
// patterns on three variables and four predicates, the last of which no
// store holds.
func randomFilterQuery(r *rand.Rand, depth int) sparql.Expr {
	if depth == 0 || r.Intn(3) == 0 {
		bgp := make(sparql.BGP, r.Intn(3)+1)
		for i := range bgp {
			bgp[i] = sparql.TriplePattern{
				S: randomFilterTerm(r, 3),
				P: sparql.C(fmt.Sprintf("p%d", r.Intn(4))),
				O: randomFilterTerm(r, 3),
			}
		}
		return bgp
	}
	l, rr := randomFilterQuery(r, depth-1), randomFilterQuery(r, depth-1)
	switch r.Intn(4) {
	case 0, 1:
		return sparql.And{L: l, R: rr}
	case 2:
		return sparql.Optional{L: l, R: rr}
	default:
		return sparql.Union{L: l, R: rr}
	}
}

func (c *filterShapes) observe(e sparql.Expr, rel *core.QueryRelation) {
	preds := map[string]int{}
	selfLoop, closing := false, false
	var walk func(e sparql.Expr)
	walk = func(e sparql.Expr) {
		switch x := e.(type) {
		case sparql.BGP:
			for j, tp := range x {
				preds[tp.P.Const.Value]++
				if !tp.S.IsVar() || !tp.O.IsVar() {
					continue
				}
				if tp.S.Var == tp.O.Var {
					selfLoop = true
					continue
				}
				for i, other := range x {
					if i != j && other.S.IsVar() && other.O.IsVar() &&
						(other.S.Var == tp.S.Var && other.O.Var == tp.O.Var ||
							other.S.Var == tp.O.Var && other.O.Var == tp.S.Var) {
						closing = true
					}
				}
			}
		case sparql.And:
			walk(x.L)
			walk(x.R)
		case sparql.Optional:
			walk(x.L)
			walk(x.R)
		case sparql.Union:
			walk(x.L)
			walk(x.R)
		}
	}
	walk(e)
	if selfLoop {
		c.selfLoop++
	}
	if closing {
		c.closing++
	}
	for _, n := range preds {
		if n > 1 {
			c.sharedPred++
			break
		}
	}
	empty := 0
	for _, bs := range rel.Branches {
		if bs.MandatoryEmpty {
			empty++
		}
	}
	if empty > 0 && empty < len(rel.Branches) {
		c.emptyBranch++
	}
}

// samePlan reports whether two operator lists are the same tree of the
// same operators over the same patterns.
func samePlan(a, b []dualsim.OperatorStats) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Op != b[i].Op || a[i].Detail != b[i].Detail || a[i].Depth != b[i].Depth {
			return false
		}
	}
	return true
}

// TestPropertyFilteredMatchesMaterialized: db.Query — the store read
// through the solved χ — returns the rows engine.Compile returns on the
// materialized pruned store — operator by operator where the two plans
// coincide — and reports the mask's kept count; for well-designed queries
// both equal the unpruned session's answer. (On a
// non-well-designed query pruning may change optional extensions, see
// TestNonWellDesignedPromotionNuance: there the filtered execution must
// reproduce the materialized one, nuance included.)
func TestPropertyFilteredMatchesMaterialized(t *testing.T) {
	ctx := context.Background()
	var shapes filterShapes
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ts := make([]rdf.Triple, 24)
		for i := range ts {
			ts[i] = rdf.T(fmt.Sprintf("n%d", r.Intn(6)), fmt.Sprintf("p%d", r.Intn(3)), fmt.Sprintf("n%d", r.Intn(6)))
		}
		st, err := storage.FromTriples(ts)
		if err != nil {
			t.Fatal(err)
		}
		q := &sparql.Query{Expr: randomFilterQuery(r, 2)}

		p, rel, err := prune.PruneQueryCtx(ctx, st, q, core.Config{})
		if err != nil {
			t.Fatalf("seed %d: prune %s: %v", seed, q, err)
		}
		shapes.observe(q.Expr, rel)
		rel.Release()
		ex, err := engine.Compile(p.Store(), q, plan.Options{})
		if err != nil {
			t.Fatalf("seed %d: compile %s: %v", seed, q, err)
		}
		materialized, err := engine.Drain(ctx, ex)
		if err != nil {
			t.Fatalf("seed %d: drain %s: %v", seed, q, err)
		}

		query := func(opts ...dualsim.Option) (*dualsim.Result, *dualsim.ExecStats) {
			db, err := dualsim.Open(st, opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			res, stats, err := db.Query(ctx, q.String())
			if err != nil {
				t.Fatalf("seed %d: query %s: %v", seed, q, err)
			}
			return res, stats
		}
		filtered, stats := query()
		if !filtered.Equal(materialized) {
			t.Logf("seed %d query %s: filtered %d rows, materialized %d rows", seed, q, filtered.Len(), materialized.Len())
			return false
		}
		if filtered.Canonical().Len() != filtered.Len() {
			t.Logf("seed %d query %s: filtered answer repeats a row", seed, q)
			return false
		}
		if stats.TriplesAfter != p.Kept {
			t.Logf("seed %d query %s: TriplesAfter %d, mask kept %d", seed, q, stats.TriplesAfter, p.Kept)
			return false
		}
		// Answers alone cannot tell a loose filter from the mask: pruning
		// preserves them. The per-operator row counts can — under the same
		// plan every operator must emit exactly what its twin emits on the
		// materialized store, no neighbour more.
		if want := ex.Operators(); samePlan(stats.Operators, want) {
			shapes.samePlan++
			for i, op := range stats.Operators {
				if op.Rows != want[i].Rows {
					t.Logf("seed %d query %s: %s %s emits %d rows filtered, %d materialized", seed, q, op.Op, op.Detail, op.Rows, want[i].Rows)
					return false
				}
			}
		}
		if sparql.IsWellDesigned(q.Expr) {
			shapes.wellDesign++
			if unpruned, _ := query(dualsim.WithPruning(false)); !filtered.Equal(unpruned) {
				t.Logf("seed %d well-designed query %s: filtered %d rows, unpruned %d rows", seed, q, filtered.Len(), unpruned.Len())
				return false
			}
		}
		return true
	}
	proptest.Check(t, f, 1500, filterRegressionSeeds)
	if shapes.selfLoop < 20 || shapes.sharedPred < 50 || shapes.emptyBranch < 20 || shapes.closing < 20 || shapes.wellDesign < 50 || shapes.samePlan < 300 {
		t.Fatalf("generator drifted: %+v", shapes)
	}
}

// lifetimeQuery has an OPTIONAL whose right side is a join, so its plan
// holds every kind of reader of χ — a mask scan, extends, and a hash join
// that drains its build side inside Open.
const lifetimeQuery = `SELECT * WHERE {
	?student <ub:advisor> ?professor .
	?student <ub:takesCourse> ?course .
	OPTIONAL { ?professor <ub:teacherOf> ?c2 . ?ta <ub:teachingAssistantOf> ?c2 . } }`

// TestChiLifetimeConcurrentStreams (-race): the filter aliases the solved
// relation's pooled χ rows, and the pool hands a released workspace to the
// next execution of the same plan. Many cursors over one PreparedQuery —
// drained, closed after a prefix, cancelled mid-stream — must each read
// their own χ until they finish: every row any of them sees is the row
// Exec returns at that position.
func TestChiLifetimeConcurrentStreams(t *testing.T) {
	st, err := dualsim.FromTriples(dualsim.GenerateLUBM(12, 42))
	if err != nil {
		t.Fatal(err)
	}
	db, err := dualsim.Open(st)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	pq, err := db.Prepare(lifetimeQuery)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := pq.Exec(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() < 2000 {
		t.Fatalf("fixture too small: %d rows", want.Len())
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for iter := 0; iter < 12; iter++ {
				ctx, cancel := context.WithCancel(context.Background())
				rows, err := pq.Stream(ctx)
				if err != nil {
					cancel()
					t.Errorf("goroutine %d: Stream: %v", g, err)
					return
				}
				mode, stop := r.Intn(3), r.Intn(want.Len())
				n := 0
				for rows.Next() {
					if n >= want.Len() || !slices.Equal(rows.Row(), want.Row(n)) {
						t.Errorf("goroutine %d iteration %d: row %d = %v differs from Exec's", g, iter, n, rows.Row())
						break
					}
					n++
					if mode == 1 && n == stop {
						break // close early
					}
					if mode == 2 && n == stop {
						cancel() // keep pulling: the executor notices at its next poll
					}
				}
				switch err := rows.Err(); {
				case mode == 0 && (err != nil || n != want.Len()):
					t.Errorf("goroutine %d: drained %d of %d rows, err %v", g, n, want.Len(), err)
				case mode == 2 && err != nil && !errors.Is(err, context.Canceled):
					t.Errorf("goroutine %d: cancelled stream ended with %v", g, err)
				}
				rows.Close()
				if rows.Next() {
					t.Errorf("goroutine %d: Next after Close produced a row", g)
				}
				cancel()
			}
		}(g)
	}
	wg.Wait()
}

// countdownCtx reports cancellation from its k-th Err call on: a
// cancellation that lands at one exact check of the pipeline. Not for
// concurrent use.
type countdownCtx struct {
	context.Context
	left *int
}

func (c countdownCtx) Err() error {
	if *c.left <= 0 {
		return context.Canceled
	}
	*c.left--
	return nil
}

// TestChiReleasedOnEveryPath: a prepared query solves once and keeps the
// view of its first execution that finished its solve; every χ a failed
// solve or mask walk leaves behind goes back to the solver pool. A χ workspace that is neither kept nor
// handed back costs the next solve of the plan a fresh one — one
// universe-wide vector per variable — so:
//   - in the steady state an execution, reused, allocates less than one
//     such vector: exhaustion, Close after a prefix, and a memory budget
//     that fails Open every time (the first execution stores its view
//     all the same, so later ones reuse it and do not solve);
//   - a first execution cancelled at any one context check — before,
//     inside or after the solve, or while its rows are pulled — stores no
//     view unless it finished its solve, and a cancelled first execution
//     followed by a good one allocates less than one vector more than the
//     good one alone;
//   - the execution after a cancelled first one solves and stores its
//     view unless the cancelled one stored it, answers correctly, and the
//     one after that reuses the view.
func TestChiReleasedOnEveryPath(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation volumes are not meaningful under the race detector")
	}
	// A small graph for the query inside a universe of 2·10^5 nodes: what an
	// execution allocates follows the former, a χ vector the latter.
	var ts []rdf.Triple
	for i := 0; i < 100000; i++ {
		ts = append(ts, rdf.T(fmt.Sprintf("f%d", i), "filler", fmt.Sprintf("g%d", i)))
	}
	for i := 0; i < 12; i++ {
		ts = append(ts,
			rdf.T(fmt.Sprintf("s%d", i), "ub:advisor", fmt.Sprintf("p%d", i%3)),
			rdf.T(fmt.Sprintf("s%d", i), "ub:takesCourse", fmt.Sprintf("c%d", i%5)),
			rdf.T(fmt.Sprintf("p%d", i%3), "ub:teacherOf", fmt.Sprintf("c%d", i%5)),
			rdf.T(fmt.Sprintf("s%d", (i+1)%12), "ub:teachingAssistantOf", fmt.Sprintf("c%d", i%5)))
	}
	st, err := storage.FromTriples(ts)
	if err != nil {
		t.Fatal(err)
	}
	oneVector := uint64(st.NumNodes() / 8)
	// One P and no collection: sync.Pool then returns what was put.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	allocated := func(run func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	steady := func(name string, run func()) {
		t.Helper()
		run() // store the view, warm the pools and the prepared query's row count
		run()
		if got := allocated(run); got >= oneVector {
			t.Errorf("%s: %d bytes allocated in the steady state, a χ vector is %d: a workspace leaked", name, got, oneVector)
		}
	}
	open := func(opts ...dualsim.Option) *dualsim.DB {
		t.Helper()
		db, err := dualsim.Open(st, opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		return db
	}
	db := open()
	prepare := func(db *dualsim.DB) *dualsim.PreparedQuery {
		t.Helper()
		pq, err := db.Prepare(lifetimeQuery)
		if err != nil {
			t.Fatal(err)
		}
		return pq
	}
	want, _, err := prepare(db).Exec(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// stream pulls up to pull rows (all: pull < 0) and reports whether
	// Stream itself opened a cursor.
	stream := func(pq *dualsim.PreparedQuery, ctx context.Context, pull int) (bool, error) {
		rows, err := pq.Stream(ctx)
		if err != nil {
			return false, err
		}
		defer rows.Close()
		for n := 0; (pull < 0 || n < pull) && rows.Next(); n++ {
		}
		return true, rows.Err()
	}
	pq := prepare(db)
	for name, pull := range map[string]int{"prefix then Close": 10, "drained": -1} {
		steady(name, func() {
			if _, err := stream(pq, context.Background(), pull); err != nil {
				t.Fatal(err)
			}
		})
	}

	// How many times does a whole first execution consult its context?
	budget := 1 << 30
	if _, err := stream(prepare(db), countdownCtx{context.Background(), &budget}, 10); err != nil {
		t.Fatal(err)
	}
	checks := 1<<30 - budget
	if checks < 4 {
		t.Fatalf("a first execution consulted its context %d times; the sweep is vacuous", checks)
	}
	// How many of them come before the view is stored? Explain makes the
	// same checks up to the store — one before the solve, then the solve's
	// and the mask walk's — and none after it.
	budget = 1 << 30
	if _, err := prepare(db).Explain(countdownCtx{context.Background(), &budget}); err != nil {
		t.Fatal(err)
	}
	stored := 1<<30 - budget
	if stored < 2 || stored >= checks {
		t.Fatalf("the view is stored after %d of %d context checks", stored, checks)
	}
	// What a good first execution allocates, χ workspace included.
	fresh := prepare(db)
	alone := allocated(func() {
		if _, err := stream(fresh, context.Background(), -1); err != nil {
			t.Fatal(err)
		}
	})
	if alone < oneVector {
		t.Fatalf("a first execution allocated %d bytes, less than one χ vector (%d): nothing to measure", alone, oneVector)
	}
	failedStreams := 0
	for k := 0; k <= checks; k++ {
		pq := prepare(db)
		var opened bool
		var cancelErr error
		var first, second *dualsim.ExecStats
		var res *dualsim.Result
		got := allocated(func() {
			left := k
			opened, cancelErr = stream(pq, countdownCtx{context.Background(), &left}, 10)
			var err error
			if res, first, err = pq.Exec(context.Background()); err != nil {
				t.Fatalf("check %d: the execution after the cancelled one: %v", k, err)
			}
		})
		if cancelErr != nil && !errors.Is(cancelErr, context.Canceled) {
			t.Fatalf("check %d: %v", k, cancelErr)
		}
		if !opened {
			failedStreams++
		}
		if k < checks && cancelErr == nil {
			t.Errorf("check %d of %d: the cancellation went unnoticed", k, checks)
		}
		if got >= alone+oneVector {
			t.Errorf("cancelled at context check %d of %d, then run: %d bytes, a good first execution alone %d, a χ vector %d: a workspace leaked",
				k, checks, got, alone, oneVector)
		}
		solved := k >= stored
		if first.Reused != solved {
			t.Errorf("check %d: solve finished %v, yet the next execution reports Reused=%v", k, solved, first.Reused)
		}
		if !solved && first.Solver.Evaluations == 0 {
			t.Errorf("check %d: the execution after a cancelled first one did not solve: %+v", k, first.Solver)
		}
		if !res.Equal(want) {
			t.Errorf("check %d: %d rows after the cancelled execution, want %d", k, res.Len(), want.Len())
		}
		_, second, err = pq.Exec(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !second.Reused || second.Solver != first.Solver {
			t.Errorf("check %d: the third execution: Reused=%v solver %+v, want the stored %+v", k, second.Reused, second.Solver, first.Solver)
		}
	}
	if failedStreams < 3 {
		t.Fatalf("only %d of %d cancellations failed Stream itself: the solve and Open are not swept", failedStreams, checks+1)
	}

	tight := prepare(open(dualsim.WithMaxQueryMemory(1)))
	steady("memory budget fails Open", func() {
		if _, err := tight.Stream(context.Background()); !errors.Is(err, dualsim.ErrQueryMemoryExceeded) {
			t.Fatalf("Stream under a 1-byte budget: %v", err)
		}
	})
}

// planShape renders an operator list as the tree the executor compiled:
// one line per operator, indented by depth.
func planShape(ops []dualsim.OperatorStats) string {
	var b strings.Builder
	for _, op := range ops {
		fmt.Fprintf(&b, "%s%s %s\n", strings.Repeat("  ", op.Depth), op.Op, op.Detail)
	}
	return b.String()
}

// benchmarkTexts returns every query text of benchmark/workloads — a
// nested module this one cannot import — read from its source, templates
// instantiated with a constant of their kind.
func benchmarkTexts(t *testing.T) []string {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), "benchmark/workloads/workloads.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	ast.Inspect(file, func(n ast.Node) bool {
		lit, ok := n.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING || !strings.Contains(lit.Value, "SELECT") {
			return true
		}
		text, err := strconv.Unquote(lit.Value)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(text, "%s") {
			constant := "dept0.univ0"
			if strings.Contains(text, "<dbo:award> <%s>") {
				constant = "award0"
			}
			text = fmt.Sprintf(text, constant)
		}
		out = append(out, text)
		return true
	})
	if len(out) < 30 {
		t.Fatalf("found only %d benchmark texts", len(out))
	}
	return out
}

// TestFilteredPlansMatchMaterialized: the planner costs the filtered view
// from the mask's kept counts and Σ|χ|; on every text of the benchmark and
// of the paper's Tables 2–5 set that must order the joins exactly as the
// pruned store's own statistics do, and log the same decisions — only
// followed, through the filter, by the patterns that do not read it. A
// difference here is a plan change to justify with drain times, not an
// accident.
func TestFilteredPlansMatchMaterialized(t *testing.T) {
	st, err := dualsim.FromTriples(append(dualsim.GenerateLUBM(3, 42), dualsim.GenerateKG(2, 42)...))
	if err != nil {
		t.Fatal(err)
	}
	texts := benchmarkTexts(t)
	for _, spec := range queries.All() {
		texts = append(texts, spec.Text)
	}
	ctx := context.Background()
	for _, text := range texts {
		q, err := sparql.Parse(text)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		p, rel, err := prune.PruneQueryCtx(ctx, st, q, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		filtered, err := engine.Compile(st, q, plan.Options{Filter: p.Filter()})
		if err != nil {
			t.Fatal(err)
		}
		materialized, err := engine.Compile(p.Store(), q, plan.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rel.Release()
		if got, want := planShape(filtered.Operators()), planShape(materialized.Operators()); got != want {
			t.Errorf("%s\nthrough the filter:\n%son the pruned store:\n%s", text, got, want)
		}
		// Through the filter the log goes on with the compiler's elisions
		// (there is no filter to elide on the pruned store); the planner's
		// part must be the same.
		planned, elided := filtered.Decisions(), []string(nil)
		if i := slices.IndexFunc(planned, func(d string) bool { return strings.HasPrefix(d, "unfiltered ") }); i >= 0 {
			planned, elided = planned[:i], planned[i:]
		}
		if !slices.Equal(planned, materialized.Decisions()) || slices.ContainsFunc(elided, func(d string) bool { return !strings.HasPrefix(d, "unfiltered ") }) {
			t.Errorf("%s\ndecisions through the filter: %q\non the pruned store: %q", text, filtered.Decisions(), materialized.Decisions())
		}
	}
}
