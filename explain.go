package dualsim

import (
	"context"
	"fmt"
	"strings"

	"dualsim/internal/trace"
)

// Explain is a query's execution plan, rendered without (EXPLAIN) or
// with (EXPLAIN ANALYZE) an execution behind it. The operator list is
// the compiled iterator tree in post-order with per-node depth — the
// same shape ExecStats.Operators reports — so an analyzed explain's row
// counts are the executed counters, not a re-estimate.
//
// JSON tags are part of the serving wire format (see ExecStats); Text
// renders the deterministic human-readable tree.
//
//dualsim:wire
type Explain struct {
	// Query is the normalized query text the plan was built from.
	Query string `json:"query"`
	// Epoch is the store epoch the plan was compiled against.
	Epoch uint64 `json:"epoch"`
	// Analyzed reports that the query was executed: Operators carries
	// real row counts (and per-operator time) and Stats the execution.
	Analyzed bool `json:"analyzed,omitempty"`
	// Operators is the compiled operator tree, post-order with Depth
	// (see ExecStats.Operators). Rows/NextCalls/Time are zero unless
	// Analyzed.
	Operators []OperatorStats `json:"operators"`
	// Decisions is the cost-based optimizer's decision log.
	Decisions []string `json:"planDecisions,omitempty"`
	// Stats is the full execution report, including the span tree with
	// pipeline-stage timings; only set when Analyzed.
	Stats *ExecStats `json:"stats,omitempty"`
}

// Explain compiles the plan the prepared query executes, without
// executing it: the plan of its stored view (see Stream), costed against
// the pinned snapshot seen through the solved dual simulation. Before any
// execution has stored a view, Explain solves once and stores it. The
// render is deterministic — the largest dual simulation is unique, so
// the same query text on the same epoch explains identically, cached or
// not — and its estimates are those an EXPLAIN ANALYZE reports.
func (pq *PreparedQuery) Explain(ctx context.Context) (*Explain, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if pq.db.closed.Load() {
		return nil, ErrClosed
	}
	v := pq.view.Load()
	if v == nil {
		v = &preparedView{}
		if pq.db.set.pruning {
			if err := v.solve(ctx, pq.plan, pq.snap.st); err != nil {
				return nil, err
			}
		}
		v = pq.store(v)
	}
	ex, err := pq.compile(v)
	if err != nil {
		return nil, err
	}
	return &Explain{
		Query:     pq.q.String(),
		Epoch:     pq.snap.epoch,
		Operators: ex.Operators(),
		Decisions: ex.Decisions(),
	}, nil
}

// ExplainAnalyze executes the prepared query with per-operator timing
// and full tracing enabled and reports the executed plan: real row
// counts, Next calls and inclusive per-operator time, plus the
// execution's ExecStats (span tree included).
func (pq *PreparedQuery) ExplainAnalyze(ctx context.Context) (*Explain, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// A private trace turns on the per-operator clocks and the stage
	// spans even when the caller's context carries none.
	sp := trace.SpanFromContext(ctx)
	if sp == nil {
		tr := trace.New("explain")
		sp = tr.Root()
		ctx = trace.ContextWithSpan(ctx, sp)
	}
	recordPrepareSpans(ctx, pq, false)
	_, stats, err := pq.Exec(ctx)
	if err != nil {
		return nil, err
	}
	stats.Trace = sp
	return &Explain{
		Query:     pq.q.String(),
		Epoch:     pq.snap.epoch,
		Analyzed:  true,
		Operators: stats.Operators,
		Decisions: stats.PlanDecisions,
		Stats:     stats,
	}, nil
}

// Explain resolves src through the session's plan cache and explains it
// without executing — the serving layer's EXPLAIN. A cached plan
// explains identically to its first explain (same epoch, same text).
func (db *DB) Explain(ctx context.Context, src string) (*Explain, error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	pq, _, err := db.Snapshot().prepareCached(src)
	if err != nil {
		return nil, err
	}
	return pq.Explain(ctx)
}

// ExplainAnalyze resolves src through the session's plan cache and
// executes it with timing — the serving layer's EXPLAIN ANALYZE.
func (db *DB) ExplainAnalyze(ctx context.Context, src string) (*Explain, error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	pq, hit, err := db.Snapshot().prepareCached(src)
	if err != nil {
		return nil, err
	}
	ex, err := pq.ExplainAnalyze(ctx)
	if err != nil {
		return nil, err
	}
	ex.Stats.CacheHit = hit
	return ex, nil
}

// explainNode is one operator with its children resolved, for the text
// render and the traced span tree.
type explainNode struct {
	op       OperatorStats
	children []*explainNode
}

// operatorTree rebuilds the plan-tree shape from the post-order
// operator list and each entry's Depth (the inverse of the executor's
// registration walk — see Exec.Operators).
func operatorTree(ops []OperatorStats) []*explainNode {
	pending := make(map[int][]*explainNode)
	for _, op := range ops {
		n := &explainNode{op: op, children: pending[op.Depth+1]}
		delete(pending, op.Depth+1)
		pending[op.Depth] = append(pending[op.Depth], n)
	}
	return pending[0]
}

// Text renders the plan as an indented tree, one operator per line,
// outermost first — stable across renders of the same plan. Analyzed
// explains append the executed counters to each line.
func (e *Explain) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "-- epoch %d\n", e.Epoch)
	for _, d := range e.Decisions {
		fmt.Fprintf(&b, "-- %s\n", d)
	}
	for _, n := range operatorTree(e.Operators) {
		e.renderNode(&b, n, 0)
	}
	return b.String()
}

func (e *Explain) renderNode(b *strings.Builder, n *explainNode, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(n.op.Op)
	if n.op.Detail != "" {
		b.WriteString(" ")
		b.WriteString(n.op.Detail)
	}
	if n.op.EstRows > 0 {
		fmt.Fprintf(b, " (est %.0f)", n.op.EstRows)
	}
	if e.Analyzed {
		fmt.Fprintf(b, " [rows=%d nextCalls=%d", n.op.Rows, n.op.NextCalls)
		if n.op.Filtered > 0 {
			fmt.Fprintf(b, " filtered=%d", n.op.Filtered)
		}
		if n.op.Time > 0 {
			fmt.Fprintf(b, " time=%s", n.op.Time)
		}
		b.WriteString("]")
	}
	b.WriteByte('\n')
	for _, c := range n.children {
		e.renderNode(b, c, depth+1)
	}
}
