package dualsim_test

import (
	"encoding/json"
	"testing"
	"time"

	"dualsim"
	"dualsim/internal/stats"
	"dualsim/internal/trace"
	"dualsim/internal/wire"
)

// TestStatsJSONFieldNames pins the wire-stable lowerCamel JSON keys of
// the stats types served by dualsimd: renaming a Go field must not
// silently rename the wire field.
func TestStatsJSONFieldNames(t *testing.T) {
	keysOf := func(v any) map[string]bool {
		t.Helper()
		buf, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(buf, &m); err != nil {
			t.Fatal(err)
		}
		out := make(map[string]bool, len(m))
		for k := range m {
			out[k] = true
		}
		return out
	}
	requireKeys := func(name string, got map[string]bool, want ...string) {
		t.Helper()
		for _, k := range want {
			if !got[k] {
				t.Errorf("%s: JSON misses key %q (got %v)", name, k, got)
			}
		}
	}

	es := dualsim.ExecStats{
		Stages:        []dualsim.StageStats{{Name: "prune", Duration: time.Millisecond, In: 10, Out: 4}},
		Solver:        dualsim.Stats{Rounds: 2, Evaluations: 7, Updates: 3},
		TriplesBefore: 10, TriplesAfter: 4, Results: 2, Epoch: 1, Duration: time.Millisecond,
		Operators:     []dualsim.OperatorStats{{Op: "scan", Detail: "?s <p> ?o", EstRows: 4, Rows: 4}},
		PlanDecisions: []string{"bgp: reordered 2 patterns sparsest-first"},
	}
	requireKeys("ExecStats", keysOf(es),
		"stages", "solver", "triplesBefore", "triplesAfter", "results", "cacheHit", "epoch", "duration",
		"operators", "planDecisions")
	requireKeys("StageStats", keysOf(es.Stages[0]), "name", "duration", "in", "out")
	requireKeys("Stats", keysOf(es.Solver), "rounds", "evaluations", "updates")
	requireKeys("OperatorStats", keysOf(es.Operators[0]), "op", "detail", "estRows", "rows")
	requireKeys("OperatorStats(analyzed)",
		keysOf(dualsim.OperatorStats{Op: "scan", NextCalls: 2, Time: time.Millisecond, Depth: 1}),
		"nextCalls", "time", "depth")

	// The trace subtree rides inside the stats trailer under "trace" —
	// on ExecStats, ApplyStats and BatchStats alike — and drops out
	// entirely when the request was untraced.
	tr := trace.New("query")
	requireKeys("ExecStats(traced)", keysOf(dualsim.ExecStats{Trace: tr.Root()}), "trace")
	requireKeys("ApplyStats(traced)", keysOf(dualsim.ApplyStats{Trace: tr.Root()}), "trace")
	requireKeys("BatchStats(traced)", keysOf(dualsim.BatchStats{Trace: tr.Root()}), "trace")
	requireKeys("trace.Span", keysOf(trace.Span{TraceID: "x", Name: "query", Duration: time.Millisecond,
		Attrs: map[string]string{"k": "v"}, Counters: map[string]int64{"rows": 1},
		Children: []*trace.Span{{Name: "c"}}}),
		"traceID", "name", "duration", "attrs", "counters", "children")
	for _, name := range []string{"ExecStats", "ApplyStats", "BatchStats"} {
		keys := map[string]map[string]bool{
			"ExecStats":  keysOf(dualsim.ExecStats{}),
			"ApplyStats": keysOf(dualsim.ApplyStats{}),
			"BatchStats": keysOf(dualsim.BatchStats{}),
		}[name]
		if keys["trace"] {
			t.Errorf("%s: untraced stats serialize a trace key", name)
		}
	}

	requireKeys("Explain", keysOf(dualsim.Explain{Query: "q", Operators: []dualsim.OperatorStats{{Op: "scan"}}}),
		"query", "epoch", "operators")
	requireKeys("PrepareStats", keysOf(dualsim.PrepareStats{PlanTime: time.Millisecond, ParseTime: time.Microsecond}),
		"planTime", "parseTime")
	// A materializing engine reports no operator tree: both fields drop
	// out of the wire form entirely rather than serializing as null.
	if keys := keysOf(dualsim.ExecStats{}); keys["operators"] || keys["planDecisions"] {
		t.Errorf("empty operators/planDecisions not omitted: %v", keys)
	}
	// An operator with no estimate or detail (e.g. a hash join) keeps
	// its mandatory keys and drops the optional ones.
	opKeys := keysOf(dualsim.OperatorStats{Op: "hashjoin"})
	if !opKeys["op"] || !opKeys["rows"] {
		t.Errorf("OperatorStats mandatory keys missing: %v", opKeys)
	}
	if opKeys["detail"] || opKeys["estRows"] {
		t.Errorf("OperatorStats optional zero keys not omitted: %v", opKeys)
	}

	// Resource accounting and the statement fingerprint ride inside the
	// stats trailer; the internal StatementText carrier must never leak
	// onto the wire.
	requireKeys("ExecStats(resources)",
		keysOf(dualsim.ExecStats{
			Resources:   &dualsim.Resources{PeakBytes: 64, RowsBuffered: 2},
			Fingerprint: "deadbeefcafef00d", StatementText: "internal",
		}),
		"resources", "fingerprint")
	requireKeys("Resources", keysOf(dualsim.Resources{PeakBytes: 64, RowsBuffered: 2}),
		"peakBytes", "rowsBuffered")
	{
		keys := keysOf(dualsim.ExecStats{StatementText: "internal"})
		if keys["resources"] || keys["fingerprint"] {
			t.Errorf("empty resources/fingerprint not omitted: %v", keys)
		}
		if keys["statementText"] || keys["StatementText"] {
			t.Errorf("StatementText leaked onto the wire: %v", keys)
		}
	}
	requireKeys("stats.Statement", keysOf(stats.Statement{
		Fingerprint: "deadbeefcafef00d", Query: "SELECT * WHERE { ?v0 <p> ?v1 }",
		Calls: 3, Errors: 1, Timeouts: 1, Shed: 1, Rows: 6, CacheHits: 2,
		TotalTime: time.Second, MeanTime: time.Second / 3,
		P50: time.Millisecond, P95: time.Millisecond, P99: time.Millisecond,
		MaxMemBytes: 64, RowsBuffered: 2, EstErrorRows: 1,
		LastSlowTraceID: "t1", LatencyBuckets: []int64{1, 2, 3},
	}),
		"fingerprint", "query", "calls", "errors", "timeouts", "shed", "rows", "cacheHits",
		"totalTime", "meanTime", "p50", "p95", "p99",
		"maxMemBytes", "rowsBuffered", "estErrorRows", "lastSlowTraceID", "latencyBuckets")
	requireKeys("StatementsResponse", keysOf(wire.StatementsResponse{
		Statements: []stats.Statement{}, Tracked: 1, Evicted: 2,
		LatencyBounds: []float64{0.001}, Shards: 2,
	}),
		"statements", "tracked", "evicted", "latencyBounds", "shards")
	// A never-slow, never-failing statement keeps its mandatory counters
	// and sheds the optional zeros.
	if keys := keysOf(stats.Statement{Fingerprint: "f", Query: "q", Calls: 1}); keys["errors"] ||
		keys["shed"] || keys["maxMemBytes"] || keys["lastSlowTraceID"] {
		t.Errorf("Statement zero counters not omitted: %v", keys)
	} else if !keys["rows"] || !keys["cacheHits"] {
		t.Errorf("Statement mandatory keys missing: %v", keys)
	}

	requireKeys("PlanCacheStats", keysOf(dualsim.PlanCacheStats{Capacity: 4, Hits: 1, Misses: 1}),
		"capacity", "size", "hits", "misses")

	requireKeys("BatchStats", keysOf(dualsim.BatchStats{Requests: 2, CacheHits: 1, Results: 3, Duration: time.Second}),
		"requests", "cacheHits", "results", "duration")

	requireKeys("ApplyStats", keysOf(dualsim.ApplyStats{Epoch: 1, Added: 2, Deleted: 1, Duration: time.Second}),
		"epoch", "added", "deleted", "overlaySize", "duration")
	requireKeys("ApplyStats(durable)",
		keysOf(dualsim.ApplyStats{WALBytes: 64, FsyncLatency: time.Millisecond, Checkpointed: true}),
		"walBytes", "fsyncLatency", "checkpointed")

	requireKeys("CheckpointStats",
		keysOf(dualsim.CheckpointStats{Epoch: 3, SnapshotBytes: 1024, WALReclaimed: 128, Duration: time.Second}),
		"epoch", "snapshotBytes", "walReclaimed", "duration")

	requireKeys("PersistStats", keysOf(dualsim.PersistStats{Durable: true, WALBytes: 1, Checkpoints: 1}),
		"durable", "walBytes", "walRecords", "checkpoints", "lastCheckpointEpoch", "snapshotBytes",
		"checkpointFailures")

	// omitempty drops flags whose zero value carries no information…
	if keys := keysOf(dualsim.ApplyStats{}); keys["noOp"] || keys["compacted"] || keys["fingerprintRebuilt"] ||
		keys["walBytes"] || keys["fsyncLatency"] || keys["checkpointed"] {
		t.Errorf("ApplyStats zero flags not omitted: %v", keys)
	}
	// …but meaningful zeros stay (a false cacheHit is a miss, not absence).
	if keys := keysOf(dualsim.ExecStats{}); !keys["cacheHit"] {
		t.Errorf("ExecStats.cacheHit must serialize when false: %v", keys)
	}
}

// TestBatchStatsSummarize covers the aggregate the /v1/batch endpoint
// reports.
func TestBatchStatsSummarize(t *testing.T) {
	hit := &dualsim.ExecStats{CacheHit: true, Results: 3}
	miss := &dualsim.ExecStats{Results: 1}
	out := []dualsim.BatchResult{
		{Stats: hit, Result: &dualsim.Result{}},
		{Stats: miss, Result: &dualsim.Result{}},
		{Err: dualsim.ErrClosed},
	}
	bs := dualsim.SummarizeBatch(out, 2*time.Second)
	if bs.Requests != 3 || bs.Failed != 1 || bs.CacheHits != 1 || bs.Results != 4 || bs.Duration != 2*time.Second {
		t.Fatalf("BatchStats = %+v", bs)
	}
}
