package dualsim

import (
	"context"
	"time"

	"dualsim/internal/bitvec"
	"dualsim/internal/core"
	"dualsim/internal/engine"
	"dualsim/internal/plan"
	"dualsim/internal/prune"
	"dualsim/internal/storage"
	"dualsim/internal/trace"
)

// ErrQueryMemoryExceeded is returned by an execution whose buffered
// state (hash-join build sides, DISTINCT/OFFSET seen-sets) outgrew the
// session's WithMaxQueryMemory budget. Served as HTTP 413 by dualsimd.
var ErrQueryMemoryExceeded = engine.ErrQueryMemoryExceeded

// Resources is the per-query resource accounting of a streaming
// execution: estimated peak buffered bytes and rows across all
// buffering operators, plus the budget in force. See
// ExecStats.Resources.
type Resources = engine.Resources

// OperatorStats is the per-operator counter set of a streaming
// execution: which physical operator ran (scan, extend, hashjoin,
// filter, union, limit, distinct, …), over what pattern or condition,
// the planner's cardinality estimate where one exists, and the rows it
// actually produced. Reported in ExecStats.Operators.
type OperatorStats = engine.OperatorStats

// compile is the one place the session turns (store, query) into an
// execution: the Volcano iterator tree of the cost-based plan, under the
// session's memory budget, reading st through filter when the pipeline
// pruned (nil: st as it is). On an oracle session (WithEngine(IndexNL))
// the oracle's materialized answer stands behind the same cursor type, so
// Exec, Stream, Explain and Evaluate need no second path for it.
func (db *DB) compile(st *Store, filter storage.Filter, q *Query) (*engine.Exec, error) {
	if db.set.engine != Volcano {
		return engine.AsExec(db.set.engine.engine(), st, q), nil
	}
	ex, err := engine.Compile(st, q, plan.Options{Filter: filter})
	if err != nil {
		return nil, err
	}
	if n := db.set.maxQueryMemory; n > 0 {
		ex.SetMaxMemory(n)
	}
	return ex, nil
}

// Stream runs the session's pipeline for this query and returns a cursor
// over its rows. The pipeline is fixed: install the fingerprint-lifted
// solver bounds (when the session has a fingerprint), solve the system of
// inequalities and mark the surviving triples (when pruning is on), then
// compile the query against the store seen through that solution: the
// candidate sets χ filter every triple the executor reads, the kept-triple
// masks are its leaf scans, the adjacency the solver cached its posting
// lists — no pruned copy of the store is built. Those steps run eagerly,
// here; the rows are computed as the caller pulls them, and the pooled χ
// rows are recycled when the cursor finishes (exhaustion, Close, error).
// A nil ctx is treated as context.Background(). Cancellation and
// deadlines interrupt the solver between inequality evaluations and the
// executor between row batches.
//
// Stats is usable immediately for the epoch and the pre-evaluation
// stages; the evaluation stage's numbers and the operator counters
// finalize when the cursor is exhausted or closed.
func (pq *PreparedQuery) Stream(ctx context.Context) (rows *Rows, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if pq.db.closed.Load() {
		return nil, ErrClosed
	}
	full := pq.snap.st
	stats := &ExecStats{
		Epoch:         pq.snap.epoch,
		TriplesBefore: full.NumTriples(),
		TriplesAfter:  full.NumTriples(),
		Fingerprint:   pq.fprint.ID,
		StatementText: pq.fprint.Text,
	}
	// parent is nil unless the request installed a trace span in ctx —
	// every trace call below is a nil-receiver no-op then, so the
	// untraced hot path stays allocation-free.
	parent := trace.SpanFromContext(ctx)
	begin := time.Now()

	// What the evaluation reads: target through filter. rel owns the χ
	// rows the filter aliases; it goes to the cursor, or back to the
	// solver pool on every return without one.
	target := full
	var filter storage.Filter
	var rel *core.QueryRelation
	defer func() {
		if rows == nil {
			rel.Release()
		}
	}()
	var restrict [][]*bitvec.Vector // solver bounds handed from fingerprint to prune
	steps := [...]struct {
		name string
		on   bool
		run  func(ctx context.Context, ss *StageStats) error
	}{
		// The fingerprint pre-filter only tightens the pruning solve, so a
		// snapshot carries one only on a session that prunes (DB.wantFP).
		{"fingerprint", pq.snap.fp != nil, func(_ context.Context, ss *StageStats) error {
			n := full.NumNodes()
			ss.In, ss.Out = n, n
			if pq.restrict == nil {
				// Lifting restricted nothing at Prepare: report the stage
				// skipped rather than advertise a bound that does not exist.
				ss.Skipped = true
				return nil
			}
			restrict = pq.restrict
			ss.Out = pq.fpTightest
			return nil
		}},
		{"prune", pq.db.set.pruning, func(ctx context.Context, ss *StageStats) error {
			var err error
			if rel, err = pq.plan.SolveRestricted(ctx, pq.db.set.coreConfig(), restrict); err != nil {
				return err
			}
			stats.Solver = Stats{
				Rounds:      rel.Stats.Rounds,
				Evaluations: rel.Stats.Evaluations,
				Updates:     rel.Stats.Updates,
			}
			stats.Unsatisfiable = rel.Empty()
			p, err := prune.PruneCtx(ctx, full, rel)
			if err != nil {
				return err
			}
			stats.TriplesAfter = p.Kept
			ss.In, ss.Out = p.Total, p.Kept
			if pq.db.set.engine != Volcano {
				// An oracle evaluates the materialized pruned store: it is
				// what the filtered execution is checked against.
				target = p.Store()
			} else {
				filter = p.Filter()
			}
			return nil
		}},
	}
	for _, step := range steps {
		if !step.on {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ss := StageStats{Name: step.name}
		sctx := ctx
		sp := parent.StartChild(step.name)
		if sp != nil {
			sctx = trace.ContextWithSpan(ctx, sp)
		}
		s0 := time.Now()
		err := step.run(sctx, &ss)
		ss.Duration = time.Since(s0)
		sp.End()
		if sp != nil {
			sp.Add("in", int64(ss.In))
			sp.Add("out", int64(ss.Out))
			if ss.Skipped {
				sp.SetAttr("skipped", "true")
			}
		}
		stats.Stages = append(stats.Stages, ss)
		if err != nil {
			return nil, err
		}
	}

	eval := time.Now()
	sp := parent.StartChild("evaluate")
	ex, err := pq.db.compile(target, filter, pq.q)
	if err == nil {
		if parent != nil {
			// A traced execution pays for per-operator clocks; the default
			// path never reads the clock per row.
			ex.EnableTiming()
		}
		stats.PlanDecisions = ex.Decisions()
		if err = ex.Open(ctx); err != nil {
			ex.Close()
		}
	}
	if err != nil {
		sp.End()
		return nil, err
	}
	return &Rows{ex: ex, st: full, rel: rel, stats: stats, begin: begin, eval: eval, in: stats.TriplesAfter, sp: sp}, nil
}

// Exec is Stream drained: it runs the same pipeline and materializes the
// cursor into a Result, returning it with the final per-stage statistics.
func (pq *PreparedQuery) Exec(ctx context.Context) (*Result, *ExecStats, error) {
	rows, err := pq.Stream(ctx)
	if err != nil {
		return nil, nil, err
	}
	defer rows.Close()
	// A prepared query is pinned to one snapshot, so its row count repeats:
	// the slice is sized by the last drain and grows only on the first.
	res := engine.NewResult(rows.Vars()...)
	res.Rows = make([][]storage.NodeID, 0, pq.lastRows.Load())
	for rows.Next() {
		res.Rows = append(res.Rows, rows.Row())
	}
	if err := rows.Err(); err != nil {
		return nil, nil, err
	}
	pq.lastRows.Store(int64(len(res.Rows)))
	return res, rows.Stats(), nil
}

// attachOperatorSpans grafts the executor's per-operator counters as a
// span tree under the evaluate span, rebuilding the plan-tree shape from
// the post-order operator list and each entry's Depth. No-op when sp is
// nil (tracing disabled).
func attachOperatorSpans(sp *trace.Span, ops []OperatorStats) {
	if sp == nil || len(ops) == 0 {
		return
	}
	// In a post-order walk, a node's children are exactly the pending
	// subtrees one level deeper when the node appears.
	pending := make(map[int][]*trace.Span)
	for _, op := range ops {
		s := &trace.Span{Name: "op." + op.Op, Duration: op.Time}
		if op.Detail != "" {
			s.Attrs = map[string]string{"detail": op.Detail}
		}
		s.Counters = map[string]int64{"rows": op.Rows, "nextCalls": op.NextCalls}
		if op.Filtered > 0 {
			s.Counters["filtered"] = op.Filtered
		}
		if op.EstRows > 0 {
			s.Counters["estRows"] = int64(op.EstRows)
		}
		s.Children = pending[op.Depth+1]
		delete(pending, op.Depth+1)
		pending[op.Depth] = append(pending[op.Depth], s)
	}
	for _, s := range pending[0] {
		sp.Attach(s)
	}
}

// StageStats reports one pipeline stage of one execution.
//
// The JSON encoding (lowerCamel tags, durations in nanoseconds) is the
// stable wire form served by dualsimd; it does not follow Go field
// renames.
//
//dualsim:wire
type StageStats struct {
	// Name is the stage name ("fingerprint", "prune", "evaluate").
	Name string `json:"name"`
	// Duration is the stage's wall-clock time.
	Duration time.Duration `json:"duration"`
	// In and Out are the stage's cardinality effect: nodes (tightest
	// candidate bound) for the fingerprint stage, triples before/after
	// for the pruning stage, triples in / result rows out for the
	// evaluation stage.
	In  int `json:"in"`
	Out int `json:"out"`
	// Skipped reports that the stage had nothing to do (e.g. the
	// fingerprint stage on a session without a fingerprint).
	Skipped bool `json:"skipped,omitempty"`
}

// ExecStats reports one execution of a prepared query, stage by stage.
//
// JSON tags are part of the serving wire format (see StageStats).
//
//dualsim:wire
type ExecStats struct {
	// Stages holds per-stage timings and cardinalities in pipeline order.
	Stages []StageStats `json:"stages,omitempty"`
	// Solver is the solver effort of the pruning stage's dual-simulation
	// solve (zero when pruning is off).
	Solver Stats `json:"solver"`
	// TriplesBefore and TriplesAfter frame the pruning effect; they are
	// equal when the pipeline does not prune.
	TriplesBefore int `json:"triplesBefore"`
	TriplesAfter  int `json:"triplesAfter"`
	// Results is the number of solution mappings.
	Results int `json:"results"`
	// Operators holds the executor's per-operator counters in post-order,
	// the outermost operator last (empty on an oracle session).
	Operators []OperatorStats `json:"operators,omitempty"`
	// PlanDecisions is the cost-based optimizer's decision log — one
	// line per join reordering, filter pushdown or LIMIT pushdown it
	// applied.
	PlanDecisions []string `json:"planDecisions,omitempty"`
	// Resources is the execution's resource accounting: estimated peak
	// buffered bytes and rows across the streaming executor's buffering
	// operators (hash-join build sides, DISTINCT/OFFSET seen-sets), and
	// the WithMaxQueryMemory budget in force.
	Resources *Resources `json:"resources,omitempty"`
	// Fingerprint identifies the statement's normalized shape — the hash
	// of the canonical query text with literals masked and variables
	// renamed positionally. It keys the workload statistics store
	// (/v1/debug/statements) and the slow-query log cross-link.
	Fingerprint string `json:"fingerprint,omitempty"`
	// StatementText is the canonical (normalized) statement text behind
	// Fingerprint. It is carried for the serving layer's statistics
	// store, not serialized per response — the statements endpoint
	// reports it once per statement instead.
	StatementText string `json:"-"`
	// Unsatisfiable reports that the solve proved the query empty (every
	// UNION branch has an empty mandatory variable, Theorem 1).
	Unsatisfiable bool `json:"unsatisfiable,omitempty"`
	// CacheHit reports that the execution reused a plan from the
	// session's plan cache (set by Query and ExecBatch; always false for
	// Prepare/Exec, which bypass the cache).
	CacheHit bool `json:"cacheHit"`
	// Epoch is the store epoch this execution answered from — the one
	// its plan was prepared on. Requests issued after an Apply report
	// the new epoch; executions of queries prepared (or pinned via
	// Snapshot) earlier keep reporting theirs.
	Epoch uint64 `json:"epoch"`
	// Duration is the end-to-end execution time.
	Duration time.Duration `json:"duration"`
	// Trace is the request's span tree when tracing was enabled
	// (?trace=1 / a traceparent header / the slow-query log): pipeline
	// stages, per-operator spans, and — on a routed query — the stitched
	// subtrees of every contacted shard. Nil by default.
	Trace *trace.Span `json:"trace,omitempty"`
}

// Stage returns the stats of the named stage, or nil if the pipeline
// did not run it.
func (s *ExecStats) Stage(name string) *StageStats {
	for i := range s.Stages {
		if s.Stages[i].Name == name {
			return &s.Stages[i]
		}
	}
	return nil
}

// JoinTime returns the evaluation stage's duration — the paper's t_DB on
// the pruned store.
func (s *ExecStats) JoinTime() time.Duration {
	if ss := s.Stage("evaluate"); ss != nil {
		return ss.Duration
	}
	return 0
}

// PruneTime returns the pruning stage's duration — the paper's
// t_SPARQLSIM.
func (s *ExecStats) PruneTime() time.Duration {
	if ss := s.Stage("prune"); ss != nil {
		return ss.Duration
	}
	return 0
}

// PrunedRatio returns the pruned fraction in [0, 1].
func (s *ExecStats) PrunedRatio() float64 {
	if s.TriplesBefore == 0 {
		return 0
	}
	return 1 - float64(s.TriplesAfter)/float64(s.TriplesBefore)
}
