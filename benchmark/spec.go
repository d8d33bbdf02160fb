package main

import (
	"encoding/json"
	"regexp"
)

// This file is the benchmark's contract: the workload names, every metric
// name with its unit and direction, the regression bound of each end-to-end
// metric and, for each per-layer metric, the end-to-end metric and workload
// it is predicted to move. Later changes cite these names verbatim, so none
// may be renamed. BENCHMARK.json at the repository root is generated from
// this table (-emit-spec) and the smoke test keeps the two equal.

// runSeconds is how long one driver run measures.
const runSeconds = 20

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadSpecs = []workloadSpec{
	{"prune_bound", "Selective cyclic, constant-anchored and provably empty queries: SOI solve and pruning do most of the work, the join engine almost none; solver and kernel changes show here, executor changes must not."},
	{"join_bound", "Low-selectivity queries and two-hop relationship self-joins with 10^4-10^5 rows: scan, extend, hash join and dedup do most of the work; pruning that costs more than it saves shows as a loss."},
	{"serve_mixed", "Durable loopback server, 2 closed-loop NDJSON clients, hundreds of distinct texts against a 128-entry plan cache, every 20th op an apply: planning, epoch invalidation, WAL and compaction beside reads."},
	{"route_union", "Router over 2 predicate-hash shards, 2 clients, 8 UNION queries, half pushed down and half gathered: fan-out, exported slices and merge dominate, so in-process solver gains should move this little."},
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	// Moves is the prediction later changes are held to: which end-to-end
	// metric this layer metric should move, on which workload. It lives
	// here and in README.md because BENCHMARK.json admits no extra keys.
	Moves string `json:"-"`
}

// endToEnd is what a user of the system sees. Every metric applies to every
// workload and is never 0. The timing bounds are the widest the driver
// admits, not the issue's 0.10-0.15: on this 2-core VM the same commit's
// 20 s windows differ by 2-25 % between runs, depending on the hour (README, "Spread"), and a
// bound has to stay about three spreads wide to mean anything. first_row_p50_ms, apply_p50_ms and failed_share
// of the issue's list are not here: the first two do not apply to every
// workload and were demoted to per-layer metrics under the same names, and
// a share that is 0 on a healthy run is reported as failed/attempted.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "heap_after_setup_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "qps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "query_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "query_geomean_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_kb_per_query", Unit: "KB", Better: "lower", Bound: 0.15},
}

// perLayer are the traced pass's numbers, one module per prefix. A metric
// whose layer a workload does not exercise reads 0 there.
var perLayer = []metricSpec{
	{Name: "sparql.parse_us_p50", Unit: "us", Better: "lower", Moves: "query_p50_ms on serve_mixed (cache-miss path)"},
	{Name: "core.build_plan_us_p50", Unit: "us", Better: "lower", Moves: "query_p50_ms on serve_mixed"},
	{Name: "soi.solve_us_p50", Unit: "us", Better: "lower", Moves: "query_geomean_ms on prune_bound"},
	{Name: "soi.solve_share", Unit: "ratio", Better: "lower", Moves: "query_geomean_ms on prune_bound; near 0 on join_bound"},
	{Name: "soi.rounds_per_query", Unit: "count", Better: "lower", Moves: "soi.solve_us_p50"},
	{Name: "soi.evaluations_per_query", Unit: "count", Better: "lower", Moves: "soi.solve_us_p50"},
	{Name: "soi.updates_per_query", Unit: "count", Better: "lower", Moves: "soi.solve_us_p50"},
	{Name: "soi.candidates_per_query", Unit: "count", Better: "lower", Moves: "prune.kept_share, engine.drain_us_p50"},
	{Name: "bitmat.multiply_ns_per_row", Unit: "ns", Better: "lower", Moves: "soi.solve_us_p50 on prune_bound"},
	{Name: "bitvec.and_ns_per_kbit", Unit: "ns", Better: "lower", Moves: "soi.solve_us_p50 on prune_bound"},
	{Name: "prune.mask_us_p50", Unit: "us", Better: "lower", Moves: "query_geomean_ms on prune_bound, join_bound"},
	{Name: "prune.materialize_us_p50", Unit: "us", Better: "lower", Moves: "query_geomean_ms, alloc_kb_per_query on prune_bound, join_bound"},
	{Name: "prune.share", Unit: "ratio", Better: "lower", Moves: "query_geomean_ms on prune_bound"},
	{Name: "prune.kept_share", Unit: "ratio", Better: "lower", Moves: "engine.drain_us_p50"},
	{Name: "prune.tightness", Unit: "ratio", Better: "higher", Moves: "over-approximation waste (paper Table 3)"},
	{Name: "plan.build_us_p50", Unit: "us", Better: "lower", Moves: "query_p50_ms on serve_mixed"},
	{Name: "plan.q_error_geomean", Unit: "ratio", Better: "lower", Moves: "engine.drain_us_p50 on join_bound"},
	{Name: "engine.compile_us_p50", Unit: "us", Better: "lower", Moves: "query_geomean_ms on join_bound"},
	{Name: "engine.drain_us_p50", Unit: "us", Better: "lower", Moves: "query_geomean_ms, qps on join_bound"},
	{Name: "engine.share", Unit: "ratio", Better: "lower", Moves: "qps on join_bound; near 0 on prune_bound"},
	{Name: "engine.rows_per_s", Unit: "1/s", Better: "higher", Moves: "qps on join_bound"},
	{Name: "engine.next_calls_per_row", Unit: "count", Better: "lower", Moves: "engine.drain_us_p50"},
	{Name: "engine.peak_buffered_kb", Unit: "KB", Better: "lower", Moves: "alloc_kb_per_query on join_bound"},
	{Name: "session.overhead_us_p50", Unit: "us", Better: "lower", Moves: "query_p50_ms on prune_bound (small queries)"},
	{Name: "session.unexplained_share", Unit: "ratio", Better: "lower", Moves: "closure remainder; must stay <= 0.15"},
	{Name: "plancache.hit_rate", Unit: "ratio", Better: "higher", Moves: "query_p50_ms on serve_mixed; 1.0 on the in-process workloads"},
	{Name: "plancache.invalidations", Unit: "count", Better: "lower", Moves: "query_p50_ms on serve_mixed"},
	{Name: "first_row_p50_ms", Unit: "ms", Better: "lower", Moves: "user-visible on serve_mixed, route_union (demoted end-to-end metric)"},
	{Name: "apply_p50_ms", Unit: "ms", Better: "lower", Moves: "user-visible on serve_mixed (demoted end-to-end metric)"},
	{Name: "delta.apply_us_p50", Unit: "us", Better: "lower", Moves: "apply_p50_ms on serve_mixed"},
	{Name: "delta.compact_ms_p50", Unit: "ms", Better: "lower", Moves: "query_p95_ms on serve_mixed (stall)"},
	{Name: "delta.compactions", Unit: "count", Better: "lower", Moves: "query_p95_ms on serve_mixed"},
	{Name: "persist.wal_bytes_per_user_byte", Unit: "ratio", Better: "lower", Moves: "apply_p50_ms on serve_mixed"},
	{Name: "persist.fsyncs_per_apply", Unit: "ratio", Better: "lower", Moves: "apply_p50_ms on serve_mixed"},
	{Name: "persist.fsync_ms_p50", Unit: "ms", Better: "lower", Moves: "apply_p50_ms on serve_mixed"},
	{Name: "persist.coldboot_s", Unit: "s", Better: "lower", Moves: "setup_s for restarts"},
	{Name: "server.overhead_us_p50", Unit: "us", Better: "lower", Moves: "query_p50_ms, first_row_p50_ms on serve_mixed"},
	{Name: "server.bytes_per_row", Unit: "count", Better: "lower", Moves: "qps on serve_mixed, route_union"},
	{Name: "server.shed_share", Unit: "ratio", Better: "lower", Moves: "failed ops"},
	{Name: "router.overhead_us_p50", Unit: "us", Better: "lower", Moves: "query_p50_ms on route_union"},
	{Name: "router.pushdown_share", Unit: "ratio", Better: "higher", Moves: "sanity: 0.75 of branches by construction"},
	{Name: "router.gather_share", Unit: "ratio", Better: "lower", Moves: "sanity: 0.25 of branches by construction"},
	{Name: "router.gather_triples_per_row", Unit: "count", Better: "lower", Moves: "query_p95_ms, alloc_kb_per_query on route_union"},
	{Name: "router.shard_rpcs_per_query", Unit: "count", Better: "lower", Moves: "query_p50_ms on route_union"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower", Moves: "none; the cost of the system's own tracing"},
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func specFor(list []metricSpec, name string) (metricSpec, bool) {
	for _, m := range list {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}

// benchmarkJSON renders the root BENCHMARK.json from the tables above.
func benchmarkJSON() []byte {
	type layerSpec struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	layers := make([]layerSpec, len(perLayer))
	for i, m := range perLayer {
		layers[i] = layerSpec{m.Name, m.Unit, m.Better}
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []layerSpec    `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloadSpecs,
		EndToEnd:   endToEnd,
		PerLayer:   layers,
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // static data
	}
	return append(out, '\n')
}
