package dualsim

import (
	"time"

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
// It borrows its iterator tree from the prepared query's view and Close
// hands it back; the solved relation and the plan the tree reads belong
// to the view too (see Stream), so no way of ending a cursor hands
// anything back to the solver. A cursor abandoned without Close only
// costs the view its idle tree, which the next execution compiles anew.
type Rows struct {
	ex    *engine.Exec  // nil once Close handed it back to view
	view  *preparedView // the view the tree goes back to
	vars  []string
	stats *ExecStats
	begin time.Time   // Stream entry, for the end-to-end duration
	eval  time.Time   // evaluate-stage start (before compile), for its StageStats
	in    int         // evaluate-stage input cardinality
	sp    *trace.Span // evaluate span of a traced stream; nil otherwise
	// The window last pulled, flat: left rows of width w are unread, and
	// the current row starts at offset off.
	win    []storage.NodeID
	left   int
	off, w int
	n      int
	err    error
	done   bool // root iterator exhausted; stats finalized
}

// Vars returns the result columns, in row order.
func (r *Rows) Vars() []string { return r.vars }

// Next advances to the next row, reporting whether one is available.
// After false, Err distinguishes exhaustion (nil) from failure. Rows are
// pulled in windows of 1, 2, 4 … up to 256 (engine.Exec.Pull): the first
// row costs one row of work, and a caller that stops after k rows has
// asked the executor for fewer than 2k.
func (r *Rows) Next() bool {
	if r.done || r.err != nil {
		return false
	}
	if r.left == 0 {
		win, n, err := r.ex.Pull()
		if err != nil || n == 0 {
			r.err = err
			r.finish()
			return false
		}
		r.win, r.left, r.off = win, n, -r.w
	}
	r.left--
	r.off += r.w
	r.n++
	return true
}

// appendAll drains the rest of the cursor into res (engine.Exec.Append)
// and finishes it.
func (r *Rows) appendAll(res *Result) error {
	n := res.Len()
	r.err = r.ex.Append(res)
	r.n += res.Len() - n
	r.finish()
	return r.err
}

// Row returns the current row: positional over Vars, Unbound for
// positions outside dom(µ), same encoding as Result.Row. The slice is a
// view of the cursor's current window, like bufio.Scanner.Bytes: it is
// valid until the next call to Next, which may overwrite it, and is
// read-only. A caller that keeps a row copies it (slices.Clone). Before
// the first Next and after the last it is nil.
func (r *Rows) Row() []storage.NodeID {
	if r.win == nil {
		return nil
	}
	return r.win[r.off : r.off+r.w : r.off+r.w]
}

// Err returns the error that terminated iteration, if any.
func (r *Rows) Err() error { return r.err }

// Close releases the cursor and hands its iterator tree back to the
// view, after which the cursor never touches it again. Idempotent; safe
// after exhaustion.
func (r *Rows) Close() error {
	if r.ex == nil {
		return nil
	}
	err := r.ex.Close()
	if !r.done {
		r.finish()
	}
	r.view.idle.Store(r.ex)
	r.ex = nil
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
// counters and the end-to-end duration.
func (r *Rows) finish() {
	r.done = true
	r.win, r.left = nil, 0
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
