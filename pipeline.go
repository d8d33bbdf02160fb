package dualsim

import (
	"context"
	"time"

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

// preparedView is what a prepared query computes once for its snapshot
// and every later execution reads: the largest dual simulation χ, the
// kept-triple masks and filter derived from it, and the physical plan
// costed through that filter. The largest solution is unique and
// independent of the evaluation order, and the snapshot never changes,
// so none of the three can differ between two executions. A view lives
// as long as its prepared query: it is dropped with it — plan-cache
// eviction, an Apply's sweep of stale epochs — and collected, never
// returned to the solver pool, since a cursor may still read it.
type preparedView struct {
	rel     *core.QueryRelation // nil when the session does not prune
	pruning *prune.Pruning      // masks and filter over rel's χ rows; nil with rel
	plan    *plan.Plan          // built through pruning's filter; nil on an oracle session
}

// solve fills the view's pruning half: the solve and the mask walk.
// On failure the relation is released and the view keeps neither.
func (v *preparedView) solve(ctx context.Context, qp *core.QueryPlan, st *Store) error {
	rel, err := qp.SolveRestricted(ctx, core.Config{}, nil)
	if err != nil {
		return err
	}
	p, err := prune.PruneCtx(ctx, st, rel)
	if err != nil {
		rel.Release()
		return err
	}
	v.rel, v.pruning = rel, p
	return nil
}

// record writes what the view's solve and mask walk did on the prune
// span — whether this execution ran them or, reused, found them stored.
func (v *preparedView) record(sp *trace.Span, reused bool) {
	if sp == nil {
		return
	}
	s := v.rel.Stats
	sp.Add("in", int64(v.pruning.Total))
	sp.Add("out", int64(v.pruning.Kept))
	sp.Add("chi.init", int64(s.ChiInit))
	sp.Add("chi.final", int64(s.ChiFinal))
	sp.Add("eval.rowwise", int64(s.RowWise))
	sp.Add("eval.colwise", int64(s.ColWise))
	sp.Add("eval.copy", int64(s.Copies))
	sp.Add("eval.skipped", int64(s.Skipped))
	sp.Add("mask.visited", int64(v.pruning.Visited))
	if reused {
		sp.SetAttr("reused", "true")
	}
}

// store plans a freshly solved view — the physical plan of the query over
// the pinned snapshot seen through the view's filter; an oracle session
// plans nothing — and stores it on the prepared query, unless a
// concurrent first execution stored one first; it returns the stored
// view. A loser's relation is left to the GC: once a view is stored, the
// plan's systems are never solved again, so the solver pool would never
// reuse it.
func (pq *PreparedQuery) store(v *preparedView) *preparedView {
	if pq.db.set.engine == Volcano {
		var opts plan.Options
		if v.pruning != nil {
			opts.Filter = v.pruning.Filter()
		}
		v.plan = plan.Build(pq.snap.st, pq.q, opts)
	}
	if pq.view.CompareAndSwap(nil, v) {
		return v
	}
	return pq.view.Load()
}

// compile is the one place the session turns a view into an execution:
// the Volcano iterator tree of the view's plan over the pinned snapshot,
// under the session's memory budget. On an oracle session
// (WithEngine(IndexNL)) the oracle's materialized answer over the same
// unpruned snapshot stands behind the same cursor type, so Exec, Stream
// and Explain need no second path for it; by soundness (Theorem 2) it
// equals the pruned execution's.
func (pq *PreparedQuery) compile(v *preparedView) (*engine.Exec, error) {
	db := pq.db
	if db.set.engine != Volcano {
		return engine.AsExec(db.set.engine.engine(), pq.snap.st, pq.q), nil
	}
	ex, err := engine.CompilePlan(pq.snap.st, v.plan)
	if err != nil {
		return nil, err
	}
	if n := db.set.maxQueryMemory; n > 0 {
		ex.SetMaxMemory(n)
	}
	return ex, nil
}

// open compiles the view and opens the iterator tree, closing it again
// when Open fails. A traced execution pays for per-operator clocks; the
// default path never reads the clock per row.
func (pq *PreparedQuery) open(ctx context.Context, v *preparedView, timed bool) (*engine.Exec, error) {
	ex, err := pq.compile(v)
	if err != nil {
		return nil, err
	}
	if timed {
		ex.EnableTiming()
	}
	if err := ex.Open(ctx); err != nil {
		ex.Close()
		return nil, err
	}
	return ex, nil
}

// Stream runs the session's pipeline for this query and returns a cursor
// over its rows. The pipeline is fixed: solve the system of inequalities
// and mark the surviving triples (when pruning is on), plan the query
// against the store seen through that solution — the candidate sets χ
// filter every triple the executor reads, the kept-triple masks are its
// leaf scans; no pruned copy of the store is built — and open the plan's
// iterator tree. The first execution whose solve and plan finish stores
// that view (χ, masks, plan) on the prepared query before it opens its
// cursor; every later one only compiles and opens the stored plan, and
// reports ExecStats.Reused — also after a first execution whose Open
// failed. A first execution that fails in the solve or the mask walk
// stores nothing and hands its χ rows back to the solver pool; one that
// loses a race to store reads the view that won. The rows are computed
// as the caller pulls them.
// A nil ctx is treated as context.Background(). Cancellation and
// deadlines interrupt the solver between inequality evaluations and the
// executor between row batches.
//
// Stats is usable immediately for the epoch and the prune stage; the
// evaluation stage's numbers and the operator counters finalize when the
// cursor is exhausted or closed.
func (pq *PreparedQuery) Stream(ctx context.Context) (*Rows, error) {
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

	v := pq.view.Load()
	fresh := v == nil
	if fresh {
		v = &preparedView{}
	}
	stats.Reused = !fresh
	if pq.db.set.pruning {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sp := parent.StartChild("prune")
		s0 := time.Now()
		var err error
		if fresh {
			err = v.solve(ctx, pq.plan, full)
		}
		d := time.Since(s0)
		sp.End()
		if err != nil {
			return nil, err
		}
		v.record(sp, !fresh)
		p, rel := v.pruning, v.rel
		stats.Stages = append(stats.Stages, StageStats{Name: "prune", Duration: d, In: p.Total, Out: p.Kept})
		stats.Solver = solverStats(rel.Stats)
		stats.Unsatisfiable = rel.Empty()
		stats.TriplesAfter = p.Kept
	}

	eval := time.Now()
	sp := parent.StartChild("evaluate")
	if fresh {
		v = pq.store(v)
	}
	ex, err := pq.open(ctx, v, parent != nil)
	if err != nil {
		sp.End()
		return nil, err
	}
	stats.PlanDecisions = ex.Decisions()
	return &Rows{ex: ex, stats: stats, begin: begin, eval: eval, in: stats.TriplesAfter, sp: sp}, nil
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
	res.Rows, err = rows.appendAll(make([][]storage.NodeID, 0, pq.lastRows.Load()))
	if err != nil {
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
	// Name is the stage name ("prune", "evaluate").
	Name string `json:"name"`
	// Duration is the stage's wall-clock time.
	Duration time.Duration `json:"duration"`
	// In and Out are the stage's cardinality effect: triples before/after
	// for the pruning stage, triples in / result rows out for the
	// evaluation stage.
	In  int `json:"in"`
	Out int `json:"out"`
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
	// session's plan cache (set by Query and QueryStream; always false
	// for Prepare/Exec, which bypass the cache).
	CacheHit bool `json:"cacheHit"`
	// Reused reports that the execution read the solved relation, the
	// kept-triple filter and the physical plan an earlier execution of
	// the same prepared query stored: it neither solved, walked the masks
	// nor planned. Solver, Unsatisfiable, TriplesAfter and the prune
	// span's counters then describe that earlier solve, and the prune
	// stage's Duration is the lookup.
	Reused bool `json:"reused"`
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

// BatchStats aggregates the members of one /v1/batch request, each an
// execution with its own ExecStats. JSON tags are part of the serving
// wire format (see ExecStats).
//
//dualsim:wire
type BatchStats struct {
	// Requests is the number of members in the batch; Failed how many
	// carried an error.
	Requests int `json:"requests"`
	Failed   int `json:"failed,omitempty"`
	// CacheHits counts members served from the plan cache.
	CacheHits int `json:"cacheHits"`
	// Results is the total number of solution mappings across the batch.
	Results int `json:"results"`
	// Duration is the wall time of the whole batch.
	Duration time.Duration `json:"duration"`
	// Trace is the batch's span tree when tracing was enabled on the
	// serving request: one batch.query child per member, each carrying
	// its pipeline and operator spans. Nil by default.
	Trace *trace.Span `json:"trace,omitempty"`
}
