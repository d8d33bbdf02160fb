package dualsim

import (
	"time"

	"dualsim/internal/core"
	"dualsim/internal/engine"
	"dualsim/internal/storage"
	"dualsim/internal/trace"
)

// Rows is a streaming result cursor: the rows of one execution delivered
// one at a time, database/sql style, instead of materialized into a
// Result. The first row is available as soon as the iterator tree
// produces it — a serving layer can have it on the wire while the last
// row is still being computed.
//
// The contract follows database/sql.Rows: call Next until it returns
// false, then consult Err to distinguish exhaustion from failure, and
// Close when done (Close is idempotent and implied by exhaustion).
// A Rows is single-goroutine; concurrent executions each call Stream.
type Rows struct {
	ex *engine.Exec
	st *Store // decode dictionary of the pinned snapshot
	// rel is the solved relation whose χ rows ex reads through its filter
	// (nil when the pipeline did not prune). finish returns them to the
	// solver pool, so ex must not be pulled afterwards: Next checks done.
	rel   *core.QueryRelation
	stats *ExecStats
	begin time.Time   // Stream entry, for the end-to-end duration
	eval  time.Time   // evaluate-stage start (before compile), for its StageStats
	in    int         // evaluate-stage input cardinality
	sp    *trace.Span // evaluate span of a traced stream; nil otherwise
	row   []storage.NodeID
	n     int
	err   error
	done  bool // root iterator exhausted; stats finalized
}

// Vars returns the result columns, in row order.
func (r *Rows) Vars() []string { return r.ex.Vars() }

// Next advances to the next row, reporting whether one is available.
// After false, Err distinguishes exhaustion (nil) from failure.
func (r *Rows) Next() bool {
	if r.done || r.err != nil {
		return false
	}
	row, ok, err := r.ex.Next()
	if err != nil {
		r.err = err
		r.finish()
		return false
	}
	if !ok {
		r.finish()
		return false
	}
	r.row = row
	r.n++
	return true
}

// Row returns the current row: positional over Vars, Unbound for
// positions outside dom(µ), same encoding as Result.Rows. The slice is
// the caller's to keep — the cursor never reuses it — but it is carved
// from the execution's row slab: treat it as read-only (a deduplicating
// operator may hold the same slice) and copy it before appending to it.
func (r *Rows) Row() []storage.NodeID { return r.row }

// Err returns the error that terminated iteration, if any.
func (r *Rows) Err() error { return r.err }

// Close releases the cursor. Idempotent; safe after exhaustion.
func (r *Rows) Close() error {
	err := r.ex.Close()
	if !r.done {
		r.finish()
	}
	if r.err == nil && err != nil {
		r.err = err
	}
	return err
}

// Stats returns the execution's statistics. Before exhaustion the
// evaluation stage is absent and the operator counters reflect rows
// produced so far; after exhaustion (or Close) everything is final.
func (r *Rows) Stats() *ExecStats {
	if !r.done {
		r.stats.Operators = r.ex.Operators()
		r.stats.Results = r.n
	}
	return r.stats
}

// finish seals the stats — the evaluation StageStats, the operator
// counters and the end-to-end duration — and releases the solved relation.
func (r *Rows) finish() {
	r.done = true
	r.row = nil
	r.rel.Release()
	r.stats.Stages = append(r.stats.Stages, StageStats{
		Name:     "evaluate",
		Duration: time.Since(r.eval),
		In:       r.in,
		Out:      r.n,
	})
	r.stats.Results = r.n
	r.stats.Operators = r.ex.Operators()
	res := r.ex.Resources()
	r.stats.Resources = &res
	r.stats.Duration = time.Since(r.begin)
	r.sp.End()
	if r.sp != nil {
		r.sp.Add("in", int64(r.in))
		r.sp.Add("out", int64(r.n))
		attachOperatorSpans(r.sp, r.stats.Operators)
		r.sp = nil
	}
}
