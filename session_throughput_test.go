package dualsim_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"dualsim"
	"dualsim/internal/queries"
)

// Three distinct queries over the fig1a store, for cache-eviction tests.
const (
	throughputQ1 = queries.QueryX1
	throughputQ2 = queries.QueryX2
	throughputQ3 = `SELECT * WHERE { ?director <awarded> ?prize . }`
)

// TestQueryPlanCache: db.Query plans a text once, serves repeats from the
// LRU cache (reported via ExecStats.CacheHit and CacheStats), normalizes
// whitespace, and evicts least-recently-used plans beyond capacity.
func TestQueryPlanCache(t *testing.T) {
	db, err := dualsim.Open(fig1a(t), dualsim.WithPlanCache(2))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()

	res, stats, err := db.Query(ctx, throughputQ1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 || stats.CacheHit {
		t.Fatalf("first Query: %d results, hit=%v", res.Len(), stats.CacheHit)
	}
	res, stats, err = db.Query(ctx, throughputQ1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 || !stats.CacheHit {
		t.Fatalf("second Query: %d results, hit=%v, want a cache hit", res.Len(), stats.CacheHit)
	}
	if got := db.PlanBuilds(); got != 1 {
		t.Fatalf("PlanBuilds = %d after repeated Query, want 1", got)
	}

	// Whitespace-normalized texts share a slot.
	reformatted := strings.Join(strings.Fields(throughputQ1), "\n\t ")
	if _, stats, err = db.Query(ctx, reformatted); err != nil || !stats.CacheHit {
		t.Fatalf("reformatted text: hit=%v err=%v, want cache hit", stats != nil && stats.CacheHit, err)
	}

	// Fill beyond capacity 2: Q2 then Q3 evicts Q1 (the LRU entry).
	if _, _, err := db.Query(ctx, throughputQ2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Query(ctx, throughputQ3); err != nil {
		t.Fatal(err)
	}
	cs := db.CacheStats()
	if cs.Capacity != 2 || cs.Size != 2 || cs.Evictions != 1 {
		t.Fatalf("cache stats after overflow = %+v, want cap 2, size 2, 1 eviction", cs)
	}
	if cs.Hits != 2 || cs.Misses != 3 {
		t.Fatalf("cache traffic = %+v, want 2 hits / 3 misses", cs)
	}
	builds := db.PlanBuilds()
	if builds != 3 {
		t.Fatalf("PlanBuilds = %d, want 3 (one per distinct query)", builds)
	}

	// The evicted Q1 must re-plan; the resident Q3 must not.
	if _, stats, err = db.Query(ctx, throughputQ1); err != nil || stats.CacheHit {
		t.Fatalf("evicted query served from cache (hit=%v err=%v)", stats != nil && stats.CacheHit, err)
	}
	if db.PlanBuilds() != builds+1 {
		t.Fatalf("eviction did not force a re-plan: builds %d -> %d", builds, db.PlanBuilds())
	}
	if _, stats, err = db.Query(ctx, throughputQ3); err != nil || !stats.CacheHit {
		t.Fatalf("resident query missed (hit=%v err=%v)", stats != nil && stats.CacheHit, err)
	}

	// Parse errors pass through and cache nothing.
	if _, _, err := db.Query(ctx, "SELECT nonsense"); err == nil {
		t.Fatal("garbage accepted")
	}

	// Without a cache, Query degrades to Exec and reports zero stats.
	plain, err := dualsim.Open(fig1a(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, stats, err := plain.Query(ctx, throughputQ1); err != nil || stats.CacheHit {
		t.Fatalf("uncached Query: hit=%v err=%v", stats != nil && stats.CacheHit, err)
	}
	if cs := plain.CacheStats(); cs != (dualsim.PlanCacheStats{}) {
		t.Fatalf("uncached session reported cache stats %+v", cs)
	}
}

// TestQueryPlanCacheConcurrent (-race): many goroutines hammer one shared
// plan cache with a rotating workload that forces hits, misses and
// evictions concurrently. Results stay correct; misses of one text are
// single-flighted so each distinct query plans at most once per residency.
func TestQueryPlanCacheConcurrent(t *testing.T) {
	st := fig1a(t)
	db, err := dualsim.Open(st, dualsim.WithPlanCache(2))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	want := map[string]int{}
	for _, src := range []string{throughputQ1, throughputQ2, throughputQ3} {
		res, _, err := db.Exec(context.Background(), src)
		if err != nil {
			t.Fatal(err)
		}
		want[src] = res.Len()
	}

	const goroutines = 8
	const iters = 30
	srcs := []string{throughputQ1, throughputQ2, throughputQ3}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				src := srcs[(g+i)%len(srcs)]
				res, stats, err := db.Query(context.Background(), src)
				if err != nil {
					errs <- err
					return
				}
				if res.Len() != want[src] {
					errs <- fmt.Errorf("query %q: %d results, want %d", src, res.Len(), want[src])
					return
				}
				if stats == nil || stats.Results != res.Len() {
					errs <- errors.New("per-exec stats missing under concurrency")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	cs := db.CacheStats()
	total := goroutines * iters
	// Every Query is exactly one recorded lookup; the priming Execs
	// bypassed the cache.
	if cs.Hits+cs.Misses != int64(total) {
		t.Fatalf("lookups = %d hits + %d misses, want %d", cs.Hits, cs.Misses, total)
	}
	if cs.Hits == 0 || cs.Misses == 0 || cs.Evictions == 0 {
		t.Fatalf("workload did not exercise hits, misses and evictions: %+v", cs)
	}
	// Single-flight on miss: plans built == misses that reached the
	// builder (each recorded miss either built or picked up a concurrent
	// build; builds can never exceed misses).
	if db.PlanBuilds()-3 > cs.Misses {
		t.Fatalf("plan builds %d exceed recorded misses %d", db.PlanBuilds()-3, cs.Misses)
	}
}

// TestExecBatch: positional results, plan-cache reuse across requests,
// prepared-query requests, and collect-by-default error semantics.
func TestExecBatch(t *testing.T) {
	db, err := dualsim.Open(fig1a(t), dualsim.WithPlanCache(8), dualsim.WithBatchWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	pq, err := db.Prepare(throughputQ3)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []dualsim.BatchRequest{
		{Src: throughputQ1},
		{Src: throughputQ2},
		{Src: throughputQ1}, // repeat: served by the cached plan
		{Prepared: pq},
		{Src: "SELECT broken"}, // parse error, isolated to this slot
		{},                     // neither Src nor Prepared
	}
	out, err := db.ExecBatch(context.Background(), reqs)
	if err != nil {
		t.Fatalf("collecting batch returned %v", err)
	}
	if len(out) != len(reqs) {
		t.Fatalf("got %d results for %d requests", len(out), len(reqs))
	}
	for i, wantLen := range map[int]int{0: 2, 1: 4, 2: 2, 3: 3} {
		r := out[i]
		if r.Err != nil || r.Result == nil || r.Result.Len() != wantLen {
			t.Fatalf("request %d = {len=%v err=%v}, want %d rows", i, r.Result, r.Err, wantLen)
		}
		if r.Stats == nil || r.Stats.Results != wantLen {
			t.Fatalf("request %d missing per-request ExecStats: %+v", i, r.Stats)
		}
	}
	if out[4].Err == nil || out[5].Err == nil {
		t.Fatalf("bad requests not reported: %v / %v", out[4].Err, out[5].Err)
	}
	// Requests 0 and 2 share a text: whichever worker gets there first
	// plans it, the other is served from the cache.
	if out[0].Stats.CacheHit == out[2].Stats.CacheHit {
		t.Fatalf("repeated batch text: cache hits %v/%v, want exactly one", out[0].Stats.CacheHit, out[2].Stats.CacheHit)
	}
	if builds := db.PlanBuilds(); builds != 3 { // Q1, Q2, and the explicit Prepare
		t.Fatalf("PlanBuilds = %d, want 3 (batch must reuse plans)", builds)
	}

	// Fail-fast: the parse error aborts the batch and surfaces as the
	// call error.
	_, err = db.ExecBatch(context.Background(),
		[]dualsim.BatchRequest{{Src: "SELECT broken"}, {Src: throughputQ1}},
		dualsim.BatchFailFast(), dualsim.BatchWorkers(1))
	if err == nil {
		t.Fatal("fail-fast batch returned nil error")
	}

	// Empty batch and closed session.
	if out, err := db.ExecBatch(context.Background(), nil); err != nil || len(out) != 0 {
		t.Fatalf("empty batch = %v, %v", out, err)
	}
	db.Close()
	if _, err := db.ExecBatch(context.Background(), reqs); !errors.Is(err, dualsim.ErrClosed) {
		t.Fatalf("ExecBatch on closed session: %v", err)
	}
}

// TestExecBatchCancellation (-race): cancelling the context mid-batch on
// a large store aborts promptly; ExecBatch reports ctx.Err() and every
// request either completed or carries the cancellation error.
func TestExecBatchCancellation(t *testing.T) {
	st, err := dualsim.GenerateLUBMStore(24, 42)
	if err != nil {
		t.Fatal(err)
	}
	db, err := dualsim.Open(st, dualsim.WithPlanCache(4), dualsim.WithBatchWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	src := `SELECT * WHERE {
		?publication <rdf:type> <ub:Publication> .
		?publication <ub:publicationAuthor> ?student .
		?student <ub:memberOf> ?department . }`

	// Baseline duration of one execution, to place the deadline mid-batch.
	// The batch runs warm from the plan cache, so the baseline must too:
	// the first call pays for parse, plan and the lazy matrix builds, and
	// 16 warm requests on 2 workers can all finish inside twice that.
	if _, _, err := db.Query(context.Background(), src); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, _, err := db.Query(context.Background(), src); err != nil {
		t.Fatal(err)
	}
	one := time.Since(start)

	reqs := make([]dualsim.BatchRequest, 16)
	for i := range reqs {
		reqs[i] = dualsim.BatchRequest{Src: src}
	}
	ctx, cancel := context.WithTimeout(context.Background(), one*2)
	defer cancel()
	start = time.Now()
	out, err := db.ExecBatch(ctx, reqs)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ExecBatch(deadline) err = %v, want DeadlineExceeded", err)
	}
	if elapsed > 16*one+time.Second {
		t.Fatalf("cancelled batch ran %v (one exec: %v) — not aborted", elapsed, one)
	}
	completed, cancelled := 0, 0
	for i, r := range out {
		switch {
		case r.Err == nil && r.Result != nil:
			completed++
		case errors.Is(r.Err, context.DeadlineExceeded):
			cancelled++
		default:
			t.Fatalf("request %d in limbo: result=%v err=%v", i, r.Result, r.Err)
		}
	}
	if cancelled == 0 {
		t.Fatalf("deadline cancelled nothing (%d completed) — test window too long?", completed)
	}
}

// TestExecBatchConcurrentCallers (-race): several goroutines issue
// batches through one session and shared cache simultaneously.
func TestExecBatchConcurrentCallers(t *testing.T) {
	db, err := dualsim.Open(fig1a(t), dualsim.WithPlanCache(4))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	reqs := []dualsim.BatchRequest{
		{Src: throughputQ1}, {Src: throughputQ2}, {Src: throughputQ3}, {Src: throughputQ1},
	}
	var wg sync.WaitGroup
	errs := make(chan error, 6)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := db.ExecBatch(context.Background(), reqs)
			if err != nil {
				errs <- err
				return
			}
			if out[0].Err != nil || out[0].Result.Len() != 2 || out[1].Result.Len() != 4 {
				errs <- errors.New("concurrent batch results wrong")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if builds := db.PlanBuilds(); builds != 3 {
		t.Fatalf("PlanBuilds = %d across concurrent batches, want 3", builds)
	}
}
