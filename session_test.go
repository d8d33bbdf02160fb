package dualsim_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"dualsim"
	"dualsim/internal/queries"
	"dualsim/internal/rdf"
	"dualsim/internal/storage"
	"dualsim/internal/trace"
)

// TestSessionPipeline: the Open → Prepare → Exec(ctx) flow on the
// paper's running example, with per-stage statistics.
func TestSessionPipeline(t *testing.T) {
	st := fig1a(t)
	db, err := dualsim.Open(st)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	pq, err := db.Prepare(queries.QueryX1)
	if err != nil {
		t.Fatal(err)
	}
	prep := pq.PrepareStats()
	if prep.Branches != 1 || prep.Inequalities == 0 || prep.Variables == 0 {
		t.Fatalf("prepare stats = %+v", prep)
	}

	res, stats, err := pq.Exec(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("results = %d, want 2", res.Len())
	}
	// The default pipeline prunes: 4 of 20 triples survive (cf. the
	// quickstart test of the stage-by-stage API).
	if stats.TriplesBefore != 20 || stats.TriplesAfter != 4 {
		t.Fatalf("pruning %d -> %d, want 20 -> 4", stats.TriplesBefore, stats.TriplesAfter)
	}
	if stats.PrunedRatio() != 0.8 {
		t.Fatalf("ratio = %f", stats.PrunedRatio())
	}
	if stats.Solver.Rounds < 1 || stats.Solver.Evaluations < 1 {
		t.Fatalf("solver stats missing: %+v", stats.Solver)
	}
	if ps := stats.Stage("prune"); ps == nil || ps.In != 20 || ps.Out != 4 {
		t.Fatalf("prune stage stats = %+v", ps)
	}
	if es := stats.Stage("evaluate"); es == nil || es.In != 4 || es.Out != 2 {
		t.Fatalf("evaluate stage stats = %+v", es)
	}
	if len(stats.Stages) != 2 {
		t.Fatalf("stages = %+v, want prune and evaluate only", stats.Stages)
	}
	if stats.Results != 2 || stats.Unsatisfiable {
		t.Fatalf("stats = %+v", stats)
	}

	// The pipeline matches the oracle's bare evaluation of the unpruned
	// store.
	bare, _, err := open(t, st, dualsim.WithEngine(dualsim.IndexNL), dualsim.WithPruning(false)).Exec(context.Background(), queries.QueryX1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal(bare) {
		t.Fatal("pipeline results differ from evaluating the unpruned store")
	}
}

// TestPreparedQueryPlansOnce: N executions of one prepared query perform
// the parse + planning work exactly once; every execution still reports
// its own solver effort.
func TestPreparedQueryPlansOnce(t *testing.T) {
	st := fig1a(t)
	db, err := dualsim.Open(st)
	if err != nil {
		t.Fatal(err)
	}
	pq, err := db.Prepare(queries.QueryX2)
	if err != nil {
		t.Fatal(err)
	}
	if got := db.PlanBuilds(); got != 1 {
		t.Fatalf("PlanBuilds after Prepare = %d, want 1", got)
	}

	var first *dualsim.ExecStats
	for i := 0; i < 10; i++ {
		res, stats, err := pq.Exec(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 4 {
			t.Fatalf("exec %d: %d results, want 4", i, res.Len())
		}
		if stats.Solver.Rounds < 1 {
			t.Fatalf("exec %d: no solver work reported: %+v", i, stats.Solver)
		}
		if first == nil {
			first = stats
			continue
		}
		// Same plan, same store: the solver effort is identical per run —
		// the plan is not rebuilt or reordered between executions.
		if stats.Solver != first.Solver {
			t.Fatalf("exec %d solver stats drifted: %+v vs %+v", i, stats.Solver, first.Solver)
		}
	}
	if got := db.PlanBuilds(); got != 1 {
		t.Fatalf("PlanBuilds after 10 Execs = %d, want 1 (plan must be reused)", got)
	}
}

// TestPreparedQueryConcurrentExec: one PreparedQuery shared by many
// goroutines (run under -race) yields identical results, with no plan
// rebuilds. The executions share the view's idle compiled tree, so
// the goroutines mix every way of ending one: a drained Exec, a traced
// Exec, a Stream closed after k rows, and a Stream drained but abandoned
// without Close (its tree never returns to the view). Every answer must
// be the sequential run's — a cut stream its first k rows — and every
// drained execution must report the sequential run's operators. A result
// kept from the first execution must still hold its rows after all the
// others have run: a re-Opened tree never rewrites a row it handed out.
func TestPreparedQueryConcurrentExec(t *testing.T) {
	st, err := dualsim.FromTriples(dualsim.GenerateKG(1, 7))
	if err != nil {
		t.Fatal(err)
	}
	db, err := dualsim.Open(st)
	if err != nil {
		t.Fatal(err)
	}
	pq, err := db.Prepare(`SELECT * WHERE {
		?film <dbo:starring> ?actor .
		?actor <dbo:birthPlace> ?place .
		OPTIONAL { ?film <dbo:writer> ?writer . } }`)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := pq.Exec(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() < 8 {
		t.Fatalf("fixture yields %d rows, want ≥ 8", want.Len())
	}
	kept := &dualsim.Result{Vars: want.Vars}
	for _, row := range want.Rows {
		kept.Append(row)
	}
	// sameOps compares operator counters, ignoring the clock a traced
	// execution reads.
	sameOps := func(got, want []dualsim.OperatorStats) bool {
		return slices.EqualFunc(got, want, func(a, b dualsim.OperatorStats) bool {
			a.Time, b.Time = 0, 0
			return a == b
		})
	}
	// run executes one of the four ways, returning the rows it delivered
	// and the operators of a drained execution (nil for a cut stream).
	run := func(way, k int) ([][]storage.NodeID, []dualsim.OperatorStats, error) {
		ctx := context.Background()
		switch way {
		case 0, 1:
			if way == 1 {
				ctx = trace.ContextWithSpan(ctx, trace.New("query").Root())
			}
			res, stats, err := pq.Exec(ctx)
			if err != nil {
				return nil, nil, err
			}
			return rowsOf(res), stats.Operators, nil
		default:
			rows, err := pq.Stream(ctx)
			if err != nil {
				return nil, nil, err
			}
			var got [][]storage.NodeID
			for (way == 3 || len(got) < k) && rows.Next() {
				got = append(got, slices.Clone(rows.Row())) // valid until the next Next
			}
			if way == 2 {
				return got, nil, rows.Close() // cut after k rows
			}
			return got, rows.Stats().Operators, rows.Err() // abandoned
		}
	}

	// The sequential run of each way: Exec fills a slice sized by the
	// previous drain and Stream pulls growing windows, so their pull
	// counts differ from each other, but not between runs of one way.
	var wantOps [4][]dualsim.OperatorStats
	for way := range wantOps {
		if _, wantOps[way], err = run(way, want.Len()); err != nil {
			t.Fatal(err)
		}
	}

	const goroutines = 8
	const execs = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*execs)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < execs; i++ {
				way, k := (g+i)%4, 1+(g*execs+i)%(want.Len()-1)
				got, ops, err := run(way, k)
				if err != nil {
					errs <- err
					return
				}
				wantRows := rowsOf(want)
				if way == 2 {
					wantRows = wantRows[:k]
				}
				if !slices.EqualFunc(got, wantRows, slices.Equal) {
					errs <- fmt.Errorf("way %d (k %d): concurrent result mismatch: %d rows, want %d", way, k, len(got), len(wantRows))
					return
				}
				if way != 2 && !sameOps(ops, wantOps[way]) {
					errs <- fmt.Errorf("way %d: operators %+v, sequential %+v", way, ops, wantOps[way])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, kept) {
		t.Fatal("a result kept from the first execution changed while later executions ran")
	}
	if got := db.PlanBuilds(); got != 1 {
		t.Fatalf("PlanBuilds = %d after concurrent Execs, want 1", got)
	}
}

// TestConcurrentPrepare: concurrent Prepare + Exec calls on one session
// over a fresh store (run under -race). Every text reads a different
// predicate, and planning takes no lock: the adjacency each plan reads is
// the store's index, built with it, so the goroutines only read shared
// state. Each answer must equal a sequential run's.
func TestConcurrentPrepare(t *testing.T) {
	texts := []string{
		`SELECT * WHERE { ?d <directed> ?m . }`,
		`SELECT * WHERE { ?x <awarded> ?a . }`,
		`SELECT * WHERE { ?x <born_in> ?c . }`,
		`SELECT * WHERE { ?x <worked_with> ?y . }`,
		`SELECT * WHERE { ?m <genre> ?g . }`,
		`SELECT * WHERE { ?m <sequel_of> ?p . }`,
		`SELECT * WHERE { ?m <prequel_of> ?s . }`,
		queries.QueryX1,
	}
	seq := open(t, fig1a(t))
	want := make([]*dualsim.Result, len(texts))
	for i, src := range texts {
		res, _, err := seq.Exec(context.Background(), src)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	db := open(t, fig1a(t))
	var wg sync.WaitGroup
	for i, src := range texts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pq, err := db.Prepare(src)
			if err != nil {
				t.Error(err)
				return
			}
			res, _, err := pq.Exec(context.Background())
			if err != nil {
				t.Error(err)
				return
			}
			if !res.Equal(want[i]) {
				t.Errorf("%s: %d rows concurrently, %d sequentially", src, res.Len(), want[i].Len())
			}
		}()
	}
	wg.Wait()
	if got := db.PlanBuilds(); got != int64(len(texts)) {
		t.Fatalf("PlanBuilds = %d, want %d", got, len(texts))
	}
}

// TestPrepareAbsentPredicateAllocatesLittle: planning a pattern over a
// predicate the store lacks hands the solver an empty adjacency — the
// universe's summary, no row pointers — instead of building two
// universe-sized matrices on every plan.
func TestPrepareAbsentPredicateAllocatesLittle(t *testing.T) {
	ts := make([]dualsim.Triple, 50_000)
	for i := range ts {
		ts[i] = rdf.T(fmt.Sprintf("s%d", i), "p", fmt.Sprintf("o%d", i))
	}
	st, err := dualsim.FromTriples(ts)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumNodes() < 100_000 {
		t.Fatalf("store has %d nodes, want ≥ 100 000", st.NumNodes())
	}
	db := open(t, st)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := db.Prepare(`SELECT * WHERE { ?x <absent> ?y . }`); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 256<<10 {
		t.Fatalf("Prepare allocated %d KB over a %d-node store, want < 256 KB", got>>10, st.NumNodes())
	}
}

// TestExecCancellation: a cancelled context aborts Exec before any work,
// and a deadline expiring mid-flight interrupts a large LUBM execution
// promptly instead of completing it. Each timed execution is the first of
// a prepared query of its own: a later one reuses the solve and the plan,
// so it costs less than the first and would finish before the deadline.
// The baseline is the fastest of a few such executions after a warm-up:
// the process's first one also pays one-time costs, and a deadline set
// from it can outlast a later execution.
// Inside one pull window the executor still polls: a bound subject whose
// 10⁵ neighbours χ rejects sees a cancellation within 1024 of them (the
// executor's rowCheckInterval), though the window fills with no row.
func TestExecCancellation(t *testing.T) {
	st, err := dualsim.FromTriples(dualsim.GenerateLUBM(32, 42))
	if err != nil {
		t.Fatal(err)
	}
	db, err := dualsim.Open(st)
	if err != nil {
		t.Fatal(err)
	}
	prepare := func() *dualsim.PreparedQuery {
		t.Helper()
		pq, err := db.Prepare(`SELECT * WHERE {
			?publication <rdf:type> <ub:Publication> .
			?publication <ub:publicationAuthor> ?student .
			?publication <ub:publicationAuthor> ?professor .
			?student <ub:degreeFrom> ?university .
			?professor <ub:worksFor> ?department .
			?student <ub:memberOf> ?department .
			?department <ub:subOrganizationOf> ?university . }`)
		if err != nil {
			t.Fatal(err)
		}
		return pq
	}
	pq := prepare()

	// Already-cancelled context: no result, no stats, ctx.Err(), and the
	// solve must not have run at all.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	res, stats, err := pq.Exec(cancelled)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Exec(cancelled) err = %v, want context.Canceled", err)
	}
	if res != nil || stats != nil {
		t.Fatalf("Exec(cancelled) returned result/stats: %v, %v", res, stats)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("Exec(cancelled) took %v", waited)
	}

	// Baseline: the fastest of three full executions (~100k triples; the
	// L1 join dominates), after one that warms the process up.
	full := time.Duration(math.MaxInt64)
	for i := 0; i < 4; i++ {
		start = time.Now()
		if _, _, err := prepare().Exec(context.Background()); err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			full = min(full, time.Since(start))
		}
	}

	// Mid-flight cancellation: cancel at a fraction of the full runtime
	// and require a return well before completion.
	ctx, cancel2 := context.WithTimeout(context.Background(), full/8)
	defer cancel2()
	start = time.Now()
	_, _, err = prepare().Exec(ctx)
	interrupted := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Exec(deadline) err = %v, want context.DeadlineExceeded (full=%v, returned in %v)",
			err, full, interrupted)
	}
	if interrupted > full/2+50*time.Millisecond {
		t.Fatalf("Exec(deadline %v) returned after %v — not prompt (full run %v)", full/8, interrupted, full)
	}

	// hub —p→ o0 … o99999 and hub —p→ m —q→ z: χ(y) = {m}, so the extend
	// of ?x <p> ?y, fed x = hub, walks 10⁵ neighbours that χ rejects and
	// then emits one row. Cancelled at each context check in turn, its
	// Filtered counter may advance by at most one poll interval per check.
	ts := []rdf.Triple{rdf.T("hub", "r", "w"), rdf.T("hub", "p", "m"), rdf.T("m", "q", "z")}
	for i := 0; i < 100_000; i++ {
		ts = append(ts, rdf.T("hub", "p", fmt.Sprintf("o%d", i)))
	}
	hubStore, err := dualsim.FromTriples(ts)
	if err != nil {
		t.Fatal(err)
	}
	hubDB, err := dualsim.Open(hubStore)
	if err != nil {
		t.Fatal(err)
	}
	defer hubDB.Close()
	hub, err := hubDB.Prepare(`SELECT * WHERE { ?x <r> ?w . ?x <p> ?y . ?y <q> ?z . }`)
	if err != nil {
		t.Fatal(err)
	}
	if res, _, err := hub.Exec(context.Background()); err != nil || res.Len() != 1 {
		t.Fatalf("hub query: %v, %v", res, err) // and the view is stored: no solve below
	}
	const pollEvery = 1024
	rejected := func(checks int) (int64, error) {
		rows, err := hub.Stream(countdownCtx{context.Background(), &checks})
		if err != nil {
			return 0, err
		}
		for rows.Next() {
		}
		rows.Close()
		for _, op := range rows.Stats().Operators {
			if op.Detail == "?x <p> ?y ." {
				return op.Filtered, rows.Err()
			}
		}
		t.Fatalf("no extend of ?x <p> ?y in %+v", rows.Stats().Operators)
		return 0, nil
	}
	var last int64
	for k := 0; ; k++ {
		got, err := rejected(k)
		if got-last > pollEvery {
			t.Fatalf("cancelled at context check %d: %d more neighbours walked than at check %d, want ≤ %d", k, got-last, k-1, pollEvery)
		}
		last = got
		if err == nil {
			if got != 100_000 {
				t.Fatalf("uncancelled: filtered = %d, want 100000", got)
			}
			break
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled at context check %d: %v", k, err)
		}
	}
}

// TestSolverCancellation: cancellation reaches the SOI round loop, not
// just the engines — DualSimulate on a session honours ctx.
func TestSolverCancellation(t *testing.T) {
	st := fig1a(t)
	db, err := dualsim.Open(st)
	if err != nil {
		t.Fatal(err)
	}
	q := dualsim.MustParseQuery(queries.QueryX1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.DualSimulate(ctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("DualSimulate(cancelled) err = %v", err)
	}
	if _, err := db.Prune(ctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("Prune(cancelled) err = %v", err)
	}
}

// TestSessionOptionsEquivalence: the pipeline result does not depend on
// the pruning switch, and the oracle hook answers the same.
func TestSessionOptionsEquivalence(t *testing.T) {
	st := fig1a(t)
	variants := [][]dualsim.Option{
		{},
		{dualsim.WithEngine(dualsim.IndexNL)},
		{dualsim.WithPruning(false)},
	}
	var want *dualsim.Result
	for i, opts := range variants {
		db, err := dualsim.Open(st, opts...)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := db.Exec(context.Background(), queries.QueryX2)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if i == 0 {
			want = res
			continue
		}
		if !res.Equal(want) {
			t.Fatalf("variant %d changed the result set", i)
		}
	}
}

// TestSessionErrors: closed sessions, invalid options, nil stores.
func TestSessionErrors(t *testing.T) {
	if _, err := dualsim.Open(nil); err == nil {
		t.Fatal("Open(nil) accepted")
	}
	for _, n := range []int{-1, 0} {
		if _, err := dualsim.Open(fig1a(t), dualsim.WithPlanCache(n)); err == nil {
			t.Fatalf("plan cache capacity %d accepted", n)
		}
	}
	if _, err := dualsim.Open(fig1a(t), dualsim.WithEngine(dualsim.EngineKind(99))); err == nil {
		t.Fatal("unknown engine accepted")
	}

	db, err := dualsim.Open(fig1a(t))
	if err != nil {
		t.Fatal(err)
	}
	pq, err := db.Prepare(queries.QueryX1)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Prepare(queries.QueryX1); !errors.Is(err, dualsim.ErrClosed) {
		t.Fatalf("Prepare on closed session: %v", err)
	}
	if _, _, err := pq.Exec(context.Background()); !errors.Is(err, dualsim.ErrClosed) {
		t.Fatalf("Exec on closed session: %v", err)
	}
	if _, err := db.DualSimulate(context.Background(), pq.Query()); !errors.Is(err, dualsim.ErrClosed) {
		t.Fatalf("DualSimulate on closed session: %v", err)
	}

	// Parse errors surface as parse errors even on a closed session:
	// Prepare parses before the closed check.
	if _, err := db.Prepare("SELECT nonsense"); err == nil || errors.Is(err, dualsim.ErrClosed) {
		t.Fatalf("Prepare(garbage) on closed session = %v, want a parse error", err)
	}
}

// TestExecNilContext: a nil ctx is treated as context.Background().
func TestExecNilContext(t *testing.T) {
	db, err := dualsim.Open(fig1a(t))
	if err != nil {
		t.Fatal(err)
	}
	pq, err := db.Prepare(queries.QueryX1)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := pq.Exec(nil)
	if err != nil || res.Len() != 2 {
		t.Fatalf("Exec(nil) = %v, %v", res, err)
	}
}

// TestReusedExecAllocs pins the allocations of a reused prepared query
// with a small result — L3, constant-anchored, one row on LUBM(1) — on
// both ways in: PreparedQuery.Exec, and a plan-cache hit through
// db.Query. The row-at-a-time executor made 49; the batch executor made
// 40, 28 of them compiling the plan. A reused execution now re-Opens a
// tree its view kept, and a hit keys the cache's map on the epoch and
// the text as sent, which the map hashes and compares in place, so what
// is left is the result, the stats and the cursor. A compile per
// execution, or a key string built per lookup, would show here.
func TestReusedExecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	st, err := dualsim.FromTriples(dualsim.GenerateLUBM(1, 42))
	if err != nil {
		t.Fatal(err)
	}
	db := open(t, st, dualsim.WithPlanCache(4))
	l3, err := queries.ByID("L3")
	if err != nil {
		t.Fatal(err)
	}
	pq, err := db.Prepare(l3.Text)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if res, _, err := pq.Exec(ctx); err != nil || res.Len() != 1 {
		t.Fatalf("L3 on LUBM(1): %v, %v; want one row", res, err)
	}
	if res, _, err := db.Query(ctx, l3.Text); err != nil || res.Len() != 1 {
		t.Fatalf("L3 on LUBM(1) through the cache: %v, %v; want one row", res, err)
	}
	for _, c := range []struct {
		name string
		hit  bool // served from the plan cache
		run  func() (*dualsim.ExecStats, error)
	}{
		{"PreparedQuery.Exec", false, func() (*dualsim.ExecStats, error) { _, s, err := pq.Exec(ctx); return s, err }},
		{"DB.Query cache hit", true, func() (*dualsim.ExecStats, error) { _, s, err := db.Query(ctx, l3.Text); return s, err }},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			if s, err := c.run(); err != nil || !s.Reused || s.CacheHit != c.hit {
				t.Fatalf("%s: %v, stats %+v", c.name, err, s)
			}
		})
		t.Logf("%s: %.0f allocations", c.name, allocs)
		if allocs > 10 {
			t.Fatalf("%s: a reused execution of L3 makes %.0f allocations, want ≤ 10", c.name, allocs)
		}
	}
}
