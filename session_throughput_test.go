package dualsim_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

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
// LRU cache (reported via ExecStats.CacheHit and CacheStats), keys on
// the exact text, and evicts least-recently-used plans beyond capacity.
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

	// The key is the text exactly as sent: a reformatted text misses
	// once, plans once, answers the same, and then hits.
	reformatted := strings.Join(strings.Fields(throughputQ1), "\n\t ")
	again, stats, err := db.Query(ctx, reformatted)
	if err != nil || stats.CacheHit {
		t.Fatalf("reformatted text: hit=%v err=%v, want a miss", stats != nil && stats.CacheHit, err)
	}
	if got := db.PlanBuilds(); got != 2 {
		t.Fatalf("PlanBuilds = %d after a reformatted text, want 2", got)
	}
	if !again.Equal(res) {
		t.Fatalf("reformatted text answered %v, the original %v", again, res)
	}
	if _, stats, err = db.Query(ctx, reformatted); err != nil || !stats.CacheHit {
		t.Fatalf("repeated reformatted text: hit=%v err=%v, want a cache hit", stats != nil && stats.CacheHit, err)
	}

	// Fill beyond capacity 2: Q2 evicts Q1 and Q3 the reformatted text
	// (each the LRU entry in turn).
	if _, _, err := db.Query(ctx, throughputQ2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Query(ctx, throughputQ3); err != nil {
		t.Fatal(err)
	}
	cs := db.CacheStats()
	if cs.Capacity != 2 || cs.Size != 2 || cs.Evictions != 2 {
		t.Fatalf("cache stats after overflow = %+v, want cap 2, size 2, 2 evictions", cs)
	}
	if cs.Hits != 2 || cs.Misses != 4 {
		t.Fatalf("cache traffic = %+v, want 2 hits / 4 misses", cs)
	}
	builds := db.PlanBuilds()
	if builds != 4 {
		t.Fatalf("PlanBuilds = %d, want 4 (one per distinct text)", builds)
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

	// A session opened without WithPlanCache caches 128 plans.
	plain, err := dualsim.Open(fig1a(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, stats, err := plain.Query(ctx, throughputQ1); err != nil || stats.CacheHit != (i == 1) {
			t.Fatalf("default-cache Query %d: hit=%v err=%v", i, stats != nil && stats.CacheHit, err)
		}
	}
	if cs := plain.CacheStats(); cs.Capacity != 128 || cs.Size != 1 || cs.Hits != 1 {
		t.Fatalf("default cache stats %+v, want capacity 128, one plan, one hit", cs)
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
