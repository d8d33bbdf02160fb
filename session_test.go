package dualsim_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"dualsim"
	"dualsim/internal/queries"
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
	if stats.Stage("fingerprint") != nil {
		t.Fatal("fingerprint stage present without WithFingerprint")
	}
	if stats.Results != 2 || stats.Unsatisfiable {
		t.Fatalf("stats = %+v", stats)
	}

	// The pipeline matches the oracle's bare evaluation of the unpruned
	// store.
	bare, err := open(t, st, dualsim.WithEngine(dualsim.IndexNL)).Evaluate(context.Background(), st, pq.Query())
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
// rebuilds.
func TestPreparedQueryConcurrentExec(t *testing.T) {
	st, err := dualsim.GenerateKGStore(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	db, err := dualsim.Open(st, dualsim.WithWorkers(2))
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

	const goroutines = 8
	const execs = 4
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*execs)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < execs; i++ {
				res, stats, err := pq.Exec(context.Background())
				if err != nil {
					errs <- err
					return
				}
				if !res.Equal(want) {
					errs <- errors.New("concurrent Exec result mismatch")
					return
				}
				if stats.TriplesAfter > stats.TriplesBefore {
					errs <- errors.New("nonsense pruning stats")
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
	if got := db.PlanBuilds(); got != 1 {
		t.Fatalf("PlanBuilds = %d after concurrent Execs, want 1", got)
	}
}

// TestConcurrentPrepare: concurrent Prepare calls on one session (run
// under -race) — planning is serialized internally over the store's
// lazily built matrices.
func TestConcurrentPrepare(t *testing.T) {
	st := fig1a(t)
	db, err := dualsim.Open(st, dualsim.WithFingerprint(2))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pq, err := db.Prepare(queries.QueryX1)
			if err != nil {
				t.Error(err)
				return
			}
			if _, _, err := pq.Exec(context.Background()); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

// TestExecCancellation: a cancelled context aborts Exec before any work,
// and a deadline expiring mid-flight interrupts a large LUBM execution
// promptly instead of completing it.
func TestExecCancellation(t *testing.T) {
	st, err := dualsim.GenerateLUBMStore(32, 42)
	if err != nil {
		t.Fatal(err)
	}
	db, err := dualsim.Open(st)
	if err != nil {
		t.Fatal(err)
	}
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

	// Baseline: the full execution takes a while on this store (~100k
	// triples; the L1 join dominates).
	start = time.Now()
	if _, _, err := pq.Exec(context.Background()); err != nil {
		t.Fatal(err)
	}
	full := time.Since(start)

	// Mid-flight cancellation: cancel at a fraction of the full runtime
	// and require a return well before completion.
	ctx, cancel2 := context.WithTimeout(context.Background(), full/8)
	defer cancel2()
	start = time.Now()
	_, _, err = pq.Exec(ctx)
	interrupted := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Exec(deadline) err = %v, want context.DeadlineExceeded (full=%v, returned in %v)",
			err, full, interrupted)
	}
	if interrupted > full/2+50*time.Millisecond {
		t.Fatalf("Exec(deadline %v) returned after %v — not prompt (full run %v)", full/8, interrupted, full)
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

// TestFingerprintPipeline: WithFingerprint adds the pre-filter stage;
// results are identical (the lifting is sound) and the stage reports a
// tightened candidate bound.
func TestFingerprintPipeline(t *testing.T) {
	st := fig1a(t)
	plain, err := dualsim.Open(st)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := dualsim.Open(st, dualsim.WithFingerprint(2))
	if err != nil {
		t.Fatal(err)
	}
	if fp.Fingerprint() == nil || plain.Fingerprint() != nil {
		t.Fatal("Fingerprint() accessor wrong")
	}

	for _, src := range []string{queries.QueryX1, queries.QueryX2} {
		want, _, err := plain.Exec(context.Background(), src)
		if err != nil {
			t.Fatal(err)
		}
		pq, err := fp.Prepare(src)
		if err != nil {
			t.Fatal(err)
		}
		got, stats, err := pq.Exec(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: fingerprint pipeline changed the result set", src)
		}
		fs := stats.Stage("fingerprint")
		if fs == nil {
			t.Fatal("fingerprint stage missing")
		}
		if !fs.Skipped {
			if pq.PrepareStats().RestrictedVars == 0 {
				t.Fatal("stage ran but no vars restricted")
			}
			if fs.Out >= fs.In {
				t.Fatalf("fingerprint did not tighten: %d -> %d", fs.In, fs.Out)
			}
		}
	}
}

// TestSessionOptionsEquivalence: every solver option accepted by Open
// leaves the pipeline result unchanged (they are heuristics, not
// semantics), and the oracle hook answers the same.
func TestSessionOptionsEquivalence(t *testing.T) {
	st := fig1a(t)
	variants := [][]dualsim.Option{
		{},
		{dualsim.WithStrategy(dualsim.RowWiseStrategy)},
		{dualsim.WithStrategy(dualsim.ColWiseStrategy)},
		{dualsim.WithDeclarationOrder()},
		{dualsim.WithPlainInit()},
		{dualsim.WithCompressed()},
		{dualsim.WithShortCircuit()},
		{dualsim.WithWorkers(4)},
		{dualsim.WithEngine(dualsim.IndexNL)},
		{dualsim.WithPruning(false)},
		{dualsim.WithFingerprint(-1)},
		{dualsim.WithWorkers(2), dualsim.WithCompressed()},
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
	if _, err := dualsim.Open(fig1a(t), dualsim.WithWorkers(-1)); err == nil {
		t.Fatal("negative workers accepted")
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
