package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"dualsim"
	"dualsim/client"
	"dualsim/internal/bitmat"
	"dualsim/internal/bitvec"
	"dualsim/internal/core"
	"dualsim/internal/engine"
	"dualsim/internal/plan"
	"dualsim/internal/prune"
	"dualsim/internal/sparql"
	"dualsim/internal/trace"
)

// The traced pass. Every span here is recorded by the benchmark around a
// call into a layer's public entry point; nothing is added inside the
// program. A layer's self time is its span minus its children's.

// maxReplayOps caps the staged replay (in whole passes), which runs every
// op four times.
const maxReplayOps = 200

// span is one benchmark-owned span. Spans of one op share Op; Parent is
// the ID of the span that caused it, -1 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// tracer keeps spans in memory until the run ends. One per goroutine.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, op, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) time.Duration {
	sp := &t.spans[id]
	sp.End = int64(time.Since(t.t0))
	return time.Duration(sp.End - sp.Start)
}

// writeSpans stores the run's spans as benchmark/out/trace-<workload>.json.
func writeSpans(workload string, tracers ...*tracer) error {
	var all [][]span
	for _, t := range tracers {
		all = append(all, t.spans)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace-"+workload+".json"), buf, 0o644)
}

// The staged pipeline's layers, in call order. plan.build is measured by a
// direct call but also happens again inside engine.compile, so it is left
// out of the sums that must close against db.Query.
var (
	planLayers = []string{"sparql.parse", "core.build_plan"}
	execLayers = []string{"soi.solve", "prune.mask", "prune.materialize", "engine.compile", "engine.drain"}
)

// layerAgg accumulates the staged replay.
type layerAgg struct {
	us        map[string][]float64       // per-call durations by layer, µs
	sum       map[string]float64         // the same summed over the calls db.Query would make, µs
	plans     map[string]*core.QueryPlan // by text, as the session's plan cache keeps them
	ops       int
	wrong     int // ops whose staged and session answers disagree
	solver    dualsim.Stats
	cands     int
	kept      int
	total     int
	rows      int
	nextCalls int64
	peakKB    []float64
	qerrLog   float64
	qerrN     int
	queryUS   float64 // Σ untraced db.Query, the closure target
	tracedUS  float64 // Σ db.Query under the system's own tracing …
	plainUS   float64 // … and Σ of its untraced twin in the mirrored position
	explained float64 // Σ layer calls db.Query is known to make: the pipeline time
	overhead  []float64
	worstID   string // query with the largest unexplained remainder
	worstUS   float64
}

func newLayerAgg() *layerAgg {
	return &layerAgg{us: map[string][]float64{}, sum: map[string]float64{}, plans: map[string]*core.QueryPlan{}}
}

// replay runs each op on one goroutine as db.Query untraced (the closure
// target), then the same pipeline staged call by call, framed by a pair of
// db.Query calls of which one has the system's tracing on (what ?trace=1
// costs).
func (a *layerAgg) replay(ctx context.Context, db *dualsim.DB, ops []*op, pins map[string]pin, tr *tracer) error {
	query := func(name string, i int, traced bool) (rows int, hit bool, took float64, err error) {
		qctx := ctx
		if traced {
			qctx = trace.ContextWithSpan(ctx, trace.New("benchmark").Root())
		}
		id := tr.begin(name, i, -1)
		res, stats, err := db.Query(qctx, ops[i].text)
		took = us(tr.end(id))
		if err != nil {
			return 0, false, 0, fmt.Errorf("%s %s: %w", name, ops[i].id, err)
		}
		return res.Len(), stats.CacheHit, took, nil
	}
	for i, o := range ops {
		// Which db.Query goes first alternates, so neither always runs
		// on the caches the other warmed.
		tracedFirst := i%2 == 1
		_, _, first, err := query("session.query.traced", i, tracedFirst)
		if err != nil {
			return err
		}
		got, hit, queryUS, err := query("session.query", i, false)
		if err != nil {
			return err
		}
		rows := a.rows
		explained, err := a.staged(ctx, db.Store(), o, i, hit, tr)
		if err != nil {
			return fmt.Errorf("staged %s: %w", o.id, err)
		}
		_, _, last, err := query("session.query.traced", i, !tracedFirst)
		if err != nil {
			return err
		}
		// Both paths must agree with each other and, where the store
		// does not move, with the oracle.
		if want, ok := pins[o.text]; a.rows-rows != got || ok && want.rows != got {
			a.wrong++
		}
		a.ops++
		// Of the two outer calls one was traced and one was a second
		// untraced call that only balances the order.
		if tracedFirst {
			a.tracedUS, a.plainUS = a.tracedUS+first, a.plainUS+last
		} else {
			a.tracedUS, a.plainUS = a.tracedUS+last, a.plainUS+first
		}
		a.queryUS += queryUS
		a.explained += explained
		a.overhead = append(a.overhead, queryUS-explained)
		if rest := queryUS - explained; rest > a.worstUS {
			a.worstID, a.worstUS = o.id, rest
		}
	}
	return nil
}

// staged is the session's pipeline with session defaults, one public call
// per layer. It returns the time of the calls db.Query makes for the same
// op: all of them on a plan-cache miss, only the execution ones on a hit.
func (a *layerAgg) staged(ctx context.Context, st *dualsim.Store, o *op, opIdx int, cacheHit bool, tr *tracer) (float64, error) {
	root := tr.begin("staged", opIdx, -1)
	defer tr.end(root)
	took := map[string]float64{}
	timed := func(name string, fn func() error) error {
		id := tr.begin(name, opIdx, root)
		err := fn()
		took[name] = us(tr.end(id))
		a.us[name] = append(a.us[name], took[name])
		return err
	}
	var (
		q      *sparql.Query
		qp     *core.QueryPlan
		rel    *core.QueryRelation
		pr     *prune.Pruning
		target *dualsim.Store
		ex     *engine.Exec
		res    *engine.Result
	)
	steps := []struct {
		name string
		fn   func() (err error)
	}{
		{"sparql.parse", func() (err error) { q, err = sparql.Parse(o.text); return }},
		{"core.build_plan", func() (err error) {
			if qp, err = core.BuildQueryPlan(st, q, core.Config{}); err == nil {
				qp.Finalize()
			}
			return
		}},
		{"soi.solve", func() (err error) {
			// On a plan-cache hit the session solves on the plan it kept,
			// whose solver pools are warm; so does the staged path.
			if kept, ok := a.plans[o.text]; ok && cacheHit {
				qp = kept
			} else if cacheHit {
				a.plans[o.text] = qp
			}
			rel, err = qp.SolveRestricted(ctx, core.Config{}, nil)
			return
		}},
		{"prune.mask", func() (err error) { pr, err = prune.PruneCtx(ctx, st, rel); return }},
		{"prune.materialize", func() error { target = pr.Store(); return nil }},
		{"plan.build", func() error { plan.Build(target, q, plan.Options{}); return nil }},
		{"engine.compile", func() (err error) { ex, err = engine.Compile(target, q, plan.Options{}); return }},
		{"engine.drain", func() (err error) { res, err = engine.Drain(ctx, ex); return }},
	}
	for _, s := range steps {
		if err := timed(s.name, s.fn); err != nil {
			return 0, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	a.solver.Rounds += rel.Stats.Rounds
	a.solver.Evaluations += rel.Stats.Evaluations
	a.solver.Updates += rel.Stats.Updates
	for _, b := range rel.Branches {
		for _, chi := range b.Sol.Chi {
			a.cands += chi.Count()
		}
	}
	rel.Release()
	a.kept += pr.Kept
	a.total += pr.Total
	a.rows += res.Len()
	for _, op := range ex.Operators() {
		a.nextCalls += op.NextCalls
		if op.EstRows > 0 {
			act := math.Max(float64(op.Rows), 1)
			a.qerrLog += math.Log(math.Max(op.EstRows/act, act/op.EstRows))
			a.qerrN++
		}
	}
	a.peakKB = append(a.peakKB, float64(ex.Resources().PeakBytes)/1024)

	layers := execLayers
	if !cacheHit {
		layers = append(append([]string(nil), planLayers...), execLayers...)
	}
	explained := 0.0
	for _, l := range layers {
		a.sum[l] += took[l]
		explained += took[l]
	}
	return explained, nil
}

// metrics turns the replay into the per-layer numbers it can speak for.
func (a *layerAgg) metrics(m map[string]float64) {
	for l, calls := range a.us {
		m[l+"_us_p50"] = median(calls)
	}
	pipeline, n := a.explained, float64(a.ops)
	m["soi.solve_share"] = a.sum["soi.solve"] / pipeline
	m["prune.share"] = (a.sum["prune.mask"] + a.sum["prune.materialize"]) / pipeline
	m["engine.share"] = (a.sum["engine.compile"] + a.sum["engine.drain"]) / pipeline
	m["soi.rounds_per_query"] = float64(a.solver.Rounds) / n
	m["soi.evaluations_per_query"] = float64(a.solver.Evaluations) / n
	m["soi.updates_per_query"] = float64(a.solver.Updates) / n
	m["soi.candidates_per_query"] = float64(a.cands) / n
	m["prune.kept_share"] = float64(a.kept) / float64(a.total)
	drainUS := 0.0
	for _, v := range a.us["engine.drain"] {
		drainUS += v
	}
	m["engine.rows_per_s"] = float64(a.rows) / (drainUS / 1e6)
	m["engine.next_calls_per_row"] = float64(a.nextCalls) / math.Max(float64(a.rows), 1)
	m["engine.peak_buffered_kb"] = median(a.peakKB)
	if a.qerrN > 0 {
		m["plan.q_error_geomean"] = math.Exp(a.qerrLog / float64(a.qerrN))
	}
	m["session.overhead_us_p50"] = median(a.overhead)
	m["session.unexplained_share"] = 1 - a.explained/a.queryUS
}

// kernels times the two loops the solver is made of, on the predicate
// matrix with the most edges: one row-wise ×b over every non-empty row, and
// one AND of two node-universe-wide vectors.
func kernels(st *dualsim.Store, m map[string]float64) {
	var densest uint32
	for p := 0; p < st.NumPreds(); p++ {
		if st.PredCount(uint32(p)) > st.PredCount(densest) {
			densest = uint32(p)
		}
	}
	mats := st.Matrices(densest)
	n := st.NumNodes()
	x, cand, dst := mats.F.NonEmptyRows(), bitvec.NewFull(n), bitvec.New(n)
	const reps = 200
	t0 := time.Now()
	rows := 0
	for i := 0; i < reps; i++ {
		rows += mats.Multiply(bitmat.Forward, x, cand, dst, bitmat.RowWise)
	}
	m["bitmat.multiply_ns_per_row"] = float64(time.Since(t0)) / float64(rows)
	y := bitvec.New(n)
	t0 = time.Now()
	for i := 0; i < reps*10; i++ {
		bitvec.AndInto(y, cand, x)
	}
	m["bitvec.and_ns_per_kbit"] = float64(time.Since(t0)) / (float64(reps*10) * float64(n) / 1000)
}

// tightnessQueries bounds how many queries per workload pay for the
// ground-truth evaluation behind prune.tightness.
const tightnessQueries = 6

// tightness is triples some match needs / triples pruning kept, over the
// first few distinct reads: 1 means pruning kept nothing it did not need.
func tightness(ctx context.Context, st *dualsim.Store, reads []op, m map[string]float64) error {
	required, kept := 0, 0
	for i, o := range reads {
		if i == tightnessQueries {
			break
		}
		q, err := sparql.Parse(o.text)
		if err != nil {
			return err
		}
		need, err := prune.RequiredCount(ctx, st, q, engine.NewIndexNL())
		if err != nil {
			return err
		}
		pr, rel, err := prune.PruneQueryCtx(ctx, st, q, core.Config{})
		if err != nil {
			return err
		}
		rel.Release()
		required += need
		kept += pr.Kept
	}
	if kept > 0 {
		m["prune.tightness"] = float64(required) / float64(kept)
	}
	return nil
}

// runTraced is the per-layer measurement of one workload.
func runTraced(ctx context.Context, w *workload, in *inputs, passes int) (*result, error) {
	res := &result{Metrics: map[string]float64{}}
	for _, spec := range perLayer {
		res.Metrics[spec.Name] = 0 // a layer the workload does not exercise reads 0
	}
	m := res.Metrics
	s, err := setUp(ctx, w, in)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer s.close()
	kernels(s.full, m)

	// The session the staged replay compares against, and the reads it
	// replays: the workload's own session and sequence in process; over
	// HTTP the server's session (or a single-node twin of the shards) and
	// client 0's reads, so the single-node layers get a number there too.
	replayDB := s.db
	tracers := []*tracer{{t0: time.Now()}}
	var pins map[string]pin
	if w.kind != served {
		if pins, err = pinAll(ctx, s.full, w.reads); err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
	}
	if w.kind != inProcess {
		if err := tracedHTTP(ctx, s, w, in, passes, pins, res, &tracers); err != nil {
			return nil, err
		}
		if w.kind == routed {
			if replayDB, err = s.open(s.full, dualsim.WithPlanCache(planCacheSize)); err != nil {
				return nil, err
			}
		}
	}
	var ops []*op
	replayPasses := max(1, min(passes, maxReplayOps/w.passLen))
	for i := 0; i < replayPasses*w.passLen; i++ {
		if o := &w.seqs[0][i%len(w.seqs[0])]; o.isRead() {
			ops = append(ops, o)
		}
	}
	cache0 := replayDB.CacheStats()
	agg := newLayerAgg()
	if err := agg.replay(ctx, replayDB, ops, pins, tracers[0]); err != nil {
		return nil, err
	}
	agg.metrics(m)
	res.Attempted += agg.ops
	res.Failed += agg.wrong
	if w.kind == inProcess {
		cache1 := replayDB.CacheStats()
		m["plancache.hit_rate"] = float64(cache1.Hits-cache0.Hits) / float64(cache1.Hits-cache0.Hits+cache1.Misses-cache0.Misses)
		m["plancache.invalidations"] = float64(cache1.Invalidations - cache0.Invalidations)
		m["trace.overhead_share"] = 1 - agg.plainUS/agg.tracedUS
	}
	if err := tightness(ctx, replayDB.Store(), w.reads, m); err != nil {
		return nil, fmt.Errorf("tightness: %w", err)
	}
	if share := m["session.unexplained_share"]; share > 0.15 {
		fmt.Fprintf(os.Stderr, "warning: %s: session.unexplained_share %.3f > 0.15; largest unattributed remainder %.0f us in db.Query of %s\n",
			w.spec.Name, share, agg.worstUS, agg.worstID)
	}
	if w.kind == served {
		if err := coldBoot(s, m); err != nil {
			return nil, err
		}
	}
	if err := writeSpans(w.spec.Name, tracers...); err != nil {
		return nil, err
	}
	return res, s.close()
}

// tracedHTTP fills in what only the serving path can tell: client-observed
// latencies against the server's own stats trailer, the write path, the
// router's fan-out, and the cost of ?trace=1.
func tracedHTTP(ctx context.Context, s *stack, w *workload, in *inputs, passes int, pins map[string]pin, res *result, tracers *[]*tracer) error {
	m := res.Metrics
	cache0, regs0 := s.cacheStats(), s.registries()
	s.wire.Store(0)
	t0 := time.Now()
	plain := drive(ctx, s, w, limit{passes: passes}, driveOpts{pins: pins, keepStats: true})
	bytes := s.wire.Load()
	cache1, regs1 := s.cacheStats(), s.registries()
	traced := drive(ctx, s, w, limit{passes: passes}, driveOpts{pins: pins, keepStats: true,
		qopts: []client.QueryOpt{client.Trace()}, startAt: passes * w.passLen})

	var first, applyLat, overhead, compact, fsync []float64
	var rows, attempted, shed, walBytes, userBytes, fsyncs, applies int
	res.account(plain)
	res.account(traced)
	for c, rec := range plain {
		first = append(first, rec.firstRow...)
		applyLat = append(applyLat, rec.applyLat...)
		rows += rec.rows
		attempted += rec.attempted
		shed += rec.shed
		// One root span per read, as the client saw it; the trailer's
		// own duration is its child, the rest is the serving path.
		tr := &tracer{t0: t0}
		*tracers = append(*tracers, tr)
		for i, rs := range rec.stats {
			start := int64(rs.start.Sub(t0))
			root := len(tr.spans)
			tr.spans = append(tr.spans, span{ID: root, Parent: -1, Op: i, Name: fmt.Sprintf("client%d.query", c), Start: start, End: start + int64(rs.latency)})
			if rs.stats != nil {
				overhead = append(overhead, us(rs.latency-rs.stats.Duration))
				tr.spans = append(tr.spans, span{ID: root + 1, Parent: root, Op: i, Name: "server.pipeline", Start: start, End: start + int64(rs.stats.Duration)})
			}
		}
		for _, st := range rec.applies {
			applies++
			walBytes += int(st.WALBytes)
			if st.FsyncLatency > 0 {
				fsyncs++
				fsync = append(fsync, ms(st.FsyncLatency))
			}
			if st.Compacted {
				compact = append(compact, ms(st.Duration))
			}
		}
	}
	m["first_row_p50_ms"] = median(first)
	m["server.overhead_us_p50"] = median(overhead)
	m["server.bytes_per_row"] = float64(bytes) / math.Max(float64(rows), 1)
	m["server.shed_share"] = float64(shed) / float64(attempted)
	m["trace.overhead_share"] = 1 - qps(traced)/qps(plain)
	if lookups := cache1.Hits - cache0.Hits + cache1.Misses - cache0.Misses; lookups > 0 {
		m["plancache.hit_rate"] = float64(cache1.Hits-cache0.Hits) / float64(lookups)
	}
	m["plancache.invalidations"] = float64(cache1.Invalidations - cache0.Invalidations)

	if w.kind == routed {
		delta := func(reg int, name string) float64 { return regs1[reg][name] - regs0[reg][name] }
		branches := delta(0, "dualsimrouter_pushdowns_total") + delta(0, "dualsimrouter_gathers_total")
		m["router.pushdown_share"] = delta(0, "dualsimrouter_pushdowns_total") / branches
		m["router.gather_share"] = delta(0, "dualsimrouter_gathers_total") / branches
		rpcs := 0.0
		for i := range s.shards {
			rpcs += delta(1+i, "dualsimd_requests_total")
		}
		m["router.shard_rpcs_per_query"] = rpcs / delta(0, "dualsimrouter_queries_total")
		var routerOver []float64
		exported, gatherRows := 0, 0
		for _, rec := range traced {
			for _, rs := range rec.stats {
				if rs.stats == nil || rs.stats.Trace == nil {
					continue
				}
				slowest, triples := fanout(rs.stats.Trace)
				routerOver = append(routerOver, us(rs.latency-slowest))
				if triples > 0 {
					exported += triples
					gatherRows += rs.rows
				}
			}
		}
		m["router.overhead_us_p50"] = median(routerOver)
		m["router.gather_triples_per_row"] = float64(exported) / math.Max(float64(gatherRows), 1)
		return nil
	}

	// served: the write path.
	m["apply_p50_ms"] = median(applyLat)
	m["delta.compact_ms_p50"] = median(compact)
	m["delta.compactions"] = float64(len(compact))
	m["persist.fsync_ms_p50"] = median(fsync)
	if applies > 0 {
		m["persist.fsyncs_per_apply"] = float64(fsyncs) / float64(applies)
	}
	// The same deltas on a non-durable twin, in process: what an apply
	// costs without HTTP, WAL and fsync.
	twin, err := dualsim.FromTriples(in.triples)
	if err != nil {
		return err
	}
	tdb, err := dualsim.Open(twin, dualsim.WithCompactionThreshold(compactThreshold))
	if err != nil {
		return err
	}
	defer tdb.Close()
	var twinUS []float64
	for i := 0; i < passes*w.passLen; i++ {
		for c := range w.seqs {
			o := &w.seqs[c][i]
			if o.isRead() {
				continue
			}
			for _, t := range append(append([]dualsim.Triple(nil), o.adds...), o.dels...) {
				userBytes += len(t.S.Value) + len(t.P) + len(t.O.Value)
			}
			t0 := time.Now()
			if _, err := tdb.Apply(ctx, dualsim.Delta{Adds: o.adds, Dels: o.dels}); err != nil {
				return fmt.Errorf("twin apply: %w", err)
			}
			twinUS = append(twinUS, us(time.Since(t0)))
		}
	}
	m["delta.apply_us_p50"] = median(twinUS)
	if userBytes > 0 {
		m["persist.wal_bytes_per_user_byte"] = float64(walBytes) / float64(userBytes)
	}
	return nil
}

// coldBoot stops the stack and restarts a session from what the run left
// on disk.
func coldBoot(s *stack, m map[string]float64) error {
	dir := s.dir
	s.dir = "" // keep the data dir through close
	defer os.RemoveAll(dir)
	if err := s.close(); err != nil {
		return err
	}
	t0 := time.Now()
	cold, err := dualsim.OpenDir(dir)
	if err != nil {
		return fmt.Errorf("cold boot: %w", err)
	}
	m["persist.coldboot_s"] = time.Since(t0).Seconds()
	return cold.Close()
}

// fanout reads a routed query's span tree: the longest time any contacted
// shard reported (a pushed-down branch carries the shard's own root span,
// a gathered one the router's export spans) and the triples exported.
func fanout(root *trace.Span) (slowest time.Duration, triples int) {
	for _, branch := range root.Children {
		for _, c := range branch.Children {
			if c.Name == "export" {
				triples += int(c.Counters["triples"])
			}
			if c.Duration > slowest {
				slowest = c.Duration
			}
		}
	}
	return slowest, triples
}

// cacheStats sums the plan-cache counters of every session of the stack.
func (s *stack) cacheStats() dualsim.PlanCacheStats {
	dbs := s.shardDBs
	if s.db != nil {
		dbs = []*dualsim.DB{s.db}
	}
	var sum dualsim.PlanCacheStats
	for _, db := range dbs {
		cs := db.CacheStats()
		sum.Hits += cs.Hits
		sum.Misses += cs.Misses
		sum.Invalidations += cs.Invalidations
	}
	return sum
}

// registries snapshots the router's metrics (index 0) and each shard
// server's (1…); empty for stacks without a router.
func (s *stack) registries() []map[string]float64 {
	if s.rt == nil {
		return nil
	}
	out := []map[string]float64{s.rt.Registry().Snapshot()}
	for _, srv := range s.shards {
		out = append(out, srv.Registry().Snapshot())
	}
	return out
}
