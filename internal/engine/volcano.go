package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"
	"unsafe"

	"dualsim/internal/bitvec"
	"dualsim/internal/plan"
	"dualsim/internal/sparql"
	"dualsim/internal/storage"
)

// ctxErr is ctx.Err() that also detects an expired deadline the runtime
// timer has not delivered yet. On hosts with coarse timer resolution a
// sub-millisecond context.WithTimeout can stay Err() == nil for tens of
// milliseconds — longer than an entire streamed execution — so the
// operators compare wall-clock time against the deadline directly.
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return context.DeadlineExceeded
	}
	return nil
}

// Iterator is the Volcano operator interface, a batch at a time: Open
// prepares the operator, Close releases resources, and Next appends rows
// to dst until dst holds limit rows, appending none only at end of
// stream. Every row has the operator's compile-time width len(Vars()),
// is positional over Vars with Unbound for positions outside dom(µ), and
// is laid out flat in dst (block), which has room for limit rows of the
// operator's width: Next never grows it. The window is the caller's: an
// operator writes only past the rows dst held when Next was called —
// which may be of another width, see block.tail — and keeps no reference
// into it; a row it must retain, it copies into a block of its own. The
// rows of an operator's own input window are valid until it pulls that
// input again.
type Iterator interface {
	Open(ctx context.Context) error
	Next(dst *block, limit int) error
	Close() error
	Vars() []string
}

// OperatorStats is the per-operator execution counter set surfaced in
// ExecStats: which operator ran, over what (a pattern or condition), the
// planner's cardinality estimate where one exists, and the rows actually
// produced.
//
//dualsim:wire
type OperatorStats struct {
	Op      string  `json:"op"`
	Detail  string  `json:"detail,omitempty"`
	EstRows float64 `json:"estRows,omitempty"`
	Rows    int64   `json:"rows"`
	// Filtered counts what the operator read and the dual-simulation
	// filter rejected: neighbours outside every candidate set, closing
	// edges the store holds but pruning dropped. A scan of two variables
	// walks kept positions only and reads 0, as does everything without
	// a filter.
	Filtered int64 `json:"filtered,omitempty"`
	// MemBytes and RowsBuffered estimate the operator's build-side
	// footprint: hash-join right sides and the seen-sets of distinct and
	// of a limit over a possibly-duplicating input are the buffering
	// points of the tree; streaming operators stay 0.
	MemBytes     int64 `json:"memBytes,omitempty"`
	RowsBuffered int64 `json:"rowsBuffered,omitempty"`
	// NextCalls counts pulls on the operator: one per window it was
	// asked to fill, plus the final end-of-stream one that appends none.
	NextCalls int64 `json:"nextCalls,omitempty"`
	// Time is wall-clock time spent inside the operator's subtree
	// (inclusive of children), collected only when the execution was
	// compiled with timing enabled (tracing / EXPLAIN ANALYZE); 0
	// otherwise, so the untraced hot path never reads the clock per row.
	Time time.Duration `json:"time,omitempty"`
	// Depth is the operator's depth in the plan tree (root = 0): with
	// the post-order operator list it reconstructs the tree shape for
	// EXPLAIN rendering and per-operator trace spans.
	Depth int `json:"depth,omitempty"`
}

// Exec is a compiled streaming execution: the iterator tree of an
// optimized plan, plus the plan metadata (per-operator counters and the
// optimizer's decision log). Pull and Append are its consumers' ends of
// the batch contract. Operators reads the counters accumulated so far,
// so it is meaningful both mid-stream and after exhaustion.
//
// An Exec runs any number of executions, one at a time: each Open starts
// a new one from zero counters and an empty account, and Close drops
// every row the tree buffered, so a closed Exec can be kept for its next
// Open. Rows an earlier execution appended to a Result stay valid: the
// Result owns them.
type Exec struct {
	root      input          // the tree, and Pull's window over it
	its       []*countedIter // the operators, in registration order
	decisions []string
	acct      *account
	// The output columns are the root's, reordered into the query's
	// SELECT * order: root column c is output column cols[c]. A nil cols
	// is the identity and costs nothing; otherwise each window is
	// remapped in place through scratch, a window of ids.
	vars    []string
	cols    []int
	scratch []storage.NodeID
	window  int  // size of Pull's last window
	timed   bool // the next Open times its operators (EnableTiming)
}

// Open starts an execution: it resets every operator's counters and the
// memory account, arms the per-operator clocks only if EnableTiming was
// called since the last Open, and prepares the tree. An already expired
// context fails here, before any operator builds its buffers.
func (e *Exec) Open(ctx context.Context) error {
	for _, it := range e.its {
		s := &it.stats
		*s = OperatorStats{Op: s.Op, Detail: s.Detail, EstRows: s.EstRows, Depth: s.Depth}
		it.timed = e.timed
	}
	e.timed = false
	*e.acct = account{limit: e.acct.limit}
	e.window = 0
	e.root.reset()
	if err := ctxErr(ctx); err != nil {
		return err
	}
	if err := e.root.it.Open(ctx); err != nil {
		return err
	}
	e.root.w = len(e.root.it.Vars()) // an oracle's columns are known once it ran
	return nil
}

// Vars returns the output columns, in row order.
func (e *Exec) Vars() []string {
	if e.cols == nil {
		return e.root.it.Vars()
	}
	return e.vars
}

// Close ends the execution. The counters stay readable until the next
// Open; the rows the operators buffered are dropped.
func (e *Exec) Close() error { e.root.reset(); return e.root.it.Close() }

// Pull returns the next window of rows, n == 0 at end of stream: 1, 2, 4
// … up to batchRows rows, so the first row costs one row of work. The n
// rows are laid out flat in ids, len(Vars()) ids each; the window is the
// Exec's and is overwritten by the next Pull, so a caller that keeps a
// row copies it.
func (e *Exec) Pull() (ids []storage.NodeID, n int, err error) {
	e.window = min(max(2*e.window, 1), batchRows)
	_, err = e.root.pull(e.window)
	e.project(&e.root.win, 0)
	return e.root.win.ids, e.root.win.n, err
}

// Append pulls every remaining row straight into dst's block, a batch at
// a time; dst's Vars must be Vars. A full block grows only when Pull's
// window holds more rows, not to see the end, so a dst sized by Grow to
// the execution's row count never reallocates.
func (e *Exec) Append(dst *Result) error {
	w := len(dst.Vars)
	for {
		n := dst.n
		room := batchRows
		if w > 0 {
			room = min(room, (cap(dst.ids)-len(dst.ids))/w)
		}
		if room == 0 {
			ok, err := e.root.pull(batchRows)
			if !ok {
				return err
			}
			e.project(&e.root.win, 0)
			dst.ids = append(dst.ids, e.root.win.ids...)
			dst.n += e.root.win.n
			continue
		}
		err := e.root.it.Next(&dst.block, n+room)
		e.project(&dst.block, n)
		if err != nil || dst.n == n {
			return err
		}
	}
}

// project puts the rows of b from row from on into the output column
// order.
func (e *Exec) project(b *block, from int) {
	if w := len(e.cols); w > 0 {
		b.remap(from, from*w, w, w, e.cols, e.scratch)
	}
}

// Operators returns a snapshot of the per-operator counters in
// registration order — post-order over the plan tree (children before
// their parent, the outermost operator last). Together with each entry's
// Depth this is enough to rebuild the tree shape.
func (e *Exec) Operators() []OperatorStats {
	out := make([]OperatorStats, len(e.its))
	for i, it := range e.its {
		out[i] = it.stats
	}
	return out
}

// EnableTiming turns on per-operator wall-clock collection for the next
// execution (OperatorStats.Time). Call before Open, which consumes it:
// timing costs two monotonic clock reads per pull per operator, so it is
// opt-in per execution — the tracer and EXPLAIN ANALYZE enable it, the
// default path does not.
func (e *Exec) EnableTiming() { e.timed = true }

// Decisions returns the planner's decision log.
func (e *Exec) Decisions() []string { return e.decisions }

// ErrQueryMemoryExceeded reports that an execution's buffered state
// outgrew its per-query memory budget (SetMaxMemory). The query fails
// cleanly; the session stays usable.
var ErrQueryMemoryExceeded = errors.New("engine: query memory budget exceeded")

// Resources is the per-query resource accounting summary: the peak
// estimated memory held by buffering operators (hash-join build sides,
// distinct/limit seen-sets) and the total rows they buffered; a plan with
// neither — any plain BGP — reads 0. Always
// collected — the estimates are integer arithmetic on the paths that
// already touch the buffered rows.
//
//dualsim:wire
type Resources struct {
	// PeakBytes is the high-water estimate of buffered bytes across the
	// whole tree; LimitBytes echoes the budget when one was set.
	PeakBytes    int64 `json:"peakBytes"`
	RowsBuffered int64 `json:"rowsBuffered,omitempty"`
	LimitBytes   int64 `json:"limitBytes,omitempty"`
}

// SetMaxMemory bounds the execution's buffered-memory estimate: once
// exceeded, the stream fails with ErrQueryMemoryExceeded. Call before
// Open; n <= 0 means unlimited (accounting still runs).
func (e *Exec) SetMaxMemory(n int64) { e.acct.limit = n }

// Resources reads the accounting accumulated so far; like Operators it
// is meaningful both mid-stream and after exhaustion.
func (e *Exec) Resources() Resources {
	return Resources{PeakBytes: e.acct.peak, RowsBuffered: e.acct.rows, LimitBytes: e.acct.limit}
}

// account tracks the execution-wide buffered-memory estimate. Volcano
// pulls are single-threaded, so plain fields suffice — charging is two
// integer adds and a compare on the paths that already append a row or
// insert a key.
type account struct {
	cur, peak int64
	rows      int64
	limit     int64 // 0 = unlimited
}

// charge books bytes (and rows) against the budget, also attributing
// them to the operator's own counters.
func (a *account) charge(st *OperatorStats, rows, bytes int64) error {
	st.MemBytes += bytes
	st.RowsBuffered += rows
	a.rows += rows
	a.cur += bytes
	if a.cur > a.peak {
		a.peak = a.cur
	}
	if a.limit > 0 && a.cur > a.limit {
		return fmt.Errorf("%w: %d bytes buffered, budget %d", ErrQueryMemoryExceeded, a.cur, a.limit)
	}
	return nil
}

// Buffered-row cost model: the bytes a retained row holds — its ids in
// the buffering operator's block, 4 bytes each, plus one 8-byte slot: its
// entry in a seen-set's table, or its chain link and bucket head in a
// hash join's build side. An estimate of what the blocks and tables
// hold, not an exact heap size (tables run at most half full) — stable
// across runs, cheap to maintain, good enough to rank statements and to
// bound runaway queries.
const rowSlotBytes = 8

func rowCostBytes(w int) int64 {
	return int64(w)*int64(unsafe.Sizeof(storage.NodeID(0))) + rowSlotBytes
}

// Compile lowers and optimizes q against st and compiles the plan to an
// iterator tree: CompilePlan of plan.Build.
func Compile(st *storage.Store, q *sparql.Query, opt plan.Options) (*Exec, error) {
	return CompilePlan(st, plan.Build(st, q, opt))
}

// CompilePlan compiles an optimized plan tree — any tree the node types
// can express, not only the shapes today's planner emits — to an
// iterator tree. The result streams distinct rows (set semantics) and
// honours the plan's LIMIT/OFFSET. The plan is only read, so one plan
// may be compiled for any number of executions, concurrently.
//
// With pl.Filter set, st is the unpruned store read through the filter:
// the rows are those of the same query compiled on the materialized
// pruned store, and the relation behind the filter must outlive the
// execution.
//
// Through a filter, a pattern whose predicate the filter keeps whole
// reads the store without it (keep-all, compiler.resolve), and each such
// pattern is named in Decisions.
func CompilePlan(st *storage.Store, pl *plan.Plan) (*Exec, error) {
	return compilePlan(st, pl, true)
}

// compilePlan is CompilePlan; with elide false every pattern reads the
// filter, keep-all ones included — the reference keep-all is tested
// against.
func compilePlan(st *storage.Store, pl *plan.Plan, elide bool) (*Exec, error) {
	c := &compiler{st: st, filter: pl.Filter, elide: elide, acct: &account{}}
	root, props, err := c.compile(pl.Root)
	if err != nil {
		return nil, err
	}
	// Top-level set semantics: only a plan whose rows may repeat (see
	// rowProps) gets an explicit distinct, which then is the real tree
	// root — the plan's operators move one level down.
	if !props.distinct {
		for _, it := range c.its {
			it.stats.Depth++
		}
		d := &distinctIter{in: root, w: len(root.Vars()), acct: c.acct}
		root = c.counted("distinct", "", 0, d)
		d.stats = c.lastStats()
	}
	ex := &Exec{root: input{it: root, w: len(root.Vars())}, its: c.its, decisions: pl.Decisions, acct: c.acct}
	if len(c.notes) > 0 {
		// The plan is shared: the elisions go into a copy of its log.
		ex.decisions = append(slices.Clip(pl.Decisions), c.notes...)
	}
	if ex.vars = selectOrder(pl.Vars, root.Vars()); !slices.Equal(ex.vars, root.Vars()) {
		ex.cols = make([]int, len(ex.vars))
		for c, v := range root.Vars() {
			ex.cols[c] = slices.Index(ex.vars, v)
		}
		ex.scratch = make([]storage.NodeID, batchMax*len(ex.vars))
	}
	return ex, nil
}

// selectOrder returns the columns have in the order of want: want's
// variables that have holds, then any others have holds, in its order.
// A nil want keeps have's order.
func selectOrder(want, have []string) []string {
	out := make([]string, 0, len(have))
	for _, v := range want {
		if slices.Contains(have, v) && !slices.Contains(out, v) {
			out = append(out, v)
		}
	}
	for _, v := range have {
		if !slices.Contains(out, v) {
			out = append(out, v)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Compiler.

type compiler struct {
	st     *storage.Store
	filter storage.Filter // nil: the patterns read st's index columns
	elide  bool           // keep-all patterns read the store without the filter
	notes  []string       // the elisions, for the decision log
	its    []*countedIter
	depth  int // plan-tree depth of the node currently being compiled
	acct   *account
}

// resolve resolves a pattern and, when the execution runs through a
// filter, binds it to the predicate's candidate filter (none: pruning
// kept nothing of it, the pattern is unsatisfiable).
func (c *compiler) resolve(tp sparql.TriplePattern) (resolved, error) {
	r, err := resolve(c.st, tp)
	if err != nil || !r.ok || c.filter == nil {
		return r, err
	}
	if r.keep = c.filter[r.pred]; r.keep == nil {
		r.ok = false
	} else if c.elide && r.keep.Kept == c.st.PredCount(r.pred) {
		// Keep-all: a filter that keeps every triple of the predicate is
		// the identity, so the pattern reads the store without it.
		r.keep = nil
		c.note("unfiltered " + tp.P.String() + " (keeps all)")
	}
	return r, nil
}

// note records an elision once.
func (c *compiler) note(d string) {
	if !slices.Contains(c.notes, d) {
		c.notes = append(c.notes, d)
	}
}

// lastStats returns the stats slot counted just registered — the hook
// buffering iterators use to attribute their memory charges.
func (c *compiler) lastStats() *OperatorStats { return &c.its[len(c.its)-1].stats }

// counted registers an operator's stats slot (tagged with the current
// tree depth) and wraps it with the row-counting shim. Registration
// order is post-order: children before their parent.
func (c *compiler) counted(op, detail string, est float64, it Iterator) Iterator {
	ci := &countedIter{in: it, stats: OperatorStats{Op: op, Detail: detail, EstRows: est, Depth: c.depth}}
	c.its = append(c.its, ci)
	return ci
}

// child compiles n one tree level below the current node.
func (c *compiler) child(n plan.Node) (Iterator, rowProps, error) {
	c.depth++
	it, props, err := c.compile(n)
	c.depth--
	return it, props, err
}

// compile lowers one plan node to its operator and, in the same pass,
// derives the node's rowProps from its children's — the one place the
// set analysis is computed.
func (c *compiler) compile(n plan.Node) (Iterator, rowProps, error) {
	switch x := n.(type) {
	case plan.Unit:
		return c.counted("unit", "", 1, &unitIter{}), scanProps(nil), nil
	case plan.Scan:
		r, err := c.resolve(x.TP)
		if err != nil {
			return nil, rowProps{}, err
		}
		sc := newExtendIter(c.st, nil, r, false)
		it := c.counted("scan", x.Detail, x.Est, sc)
		sc.filtered = &c.lastStats().Filtered
		return it, scanProps(r.vars()), nil
	case plan.Join:
		return c.compileJoin(x.L, x.R, false)
	case plan.LeftJoin:
		return c.compileJoin(x.L, x.R, true)
	case plan.Union:
		l, lp, err := c.child(x.L)
		if err != nil {
			return nil, rowProps{}, err
		}
		r, rp, err := c.child(x.R)
		if err != nil {
			return nil, rowProps{}, err
		}
		return c.counted("union", "", 0, newUnionIter(l, r)), unionProps(lp, rp), nil
	case plan.Filter:
		in, props, err := c.child(x.Input)
		if err != nil {
			return nil, rowProps{}, err
		}
		return c.counted("filter", x.Detail, 0, newFilterIter(c.st, in, x.Cond)), props, nil
	case plan.Limit:
		in, props, err := c.child(x.Input)
		if err != nil {
			return nil, rowProps{}, err
		}
		// The window counts distinct rows: over a set it just counts,
		// otherwise it keeps a seen-set. Either way its output is a set.
		li := &limitIter{in: in, w: len(in.Vars()), limit: x.Limit, offset: x.Offset, dedup: !props.distinct, acct: c.acct}
		it := c.counted("limit", x.Detail, 0, li)
		li.stats = c.lastStats()
		props.distinct = true
		return it, props, nil
	default:
		return nil, rowProps{}, fmt.Errorf("engine: unknown plan node %T", n)
	}
}

// compileJoin picks the physical join: when the right side is a scan
// (optionally under pushed-down filters), the extend that runs every leaf
// scan, fed the left input instead of the unit row — no materialization
// on either side; otherwise a hash join that drains only the right side.
func (c *compiler) compileJoin(ln, rn plan.Node, leftOuter bool) (Iterator, rowProps, error) {
	// Peel pushed-down filters off a scan right side: for an inner join,
	// filtering the extensions after the merge is equivalent to filtering
	// the scan (the scan binds every variable the condition may name).
	// For a left join the filter must apply before the outer padding, so
	// only a bare scan takes the extend path there.
	rs := rn
	var conds []plan.Filter
	if !leftOuter {
		for {
			f, ok := rs.(plan.Filter)
			if !ok {
				break
			}
			conds = append(conds, f)
			rs = f.Input
		}
	}
	if sc, ok := rs.(plan.Scan); ok {
		// The compiled shape is filter(…filter(extend(l)))— the peeled
		// filters stack above the extend, the left input hangs below it.
		base := c.depth
		c.depth = base + len(conds) + 1
		l, lp, err := c.compile(ln)
		c.depth = base
		if err != nil {
			return nil, rowProps{}, err
		}
		r, err := c.resolve(sc.TP)
		if err != nil {
			return nil, rowProps{}, err
		}
		op := "extend"
		if leftOuter {
			op = "extendleft"
		}
		props := joinProps(lp, scanProps(r.vars()), l.Vars(), r.vars(), leftOuter)
		c.depth = base + len(conds)
		ext := newExtendIter(c.st, l, r, leftOuter)
		it := c.counted(op, sc.Detail, sc.Est, ext)
		ext.filtered = &c.lastStats().Filtered
		for i := len(conds) - 1; i >= 0; i-- {
			c.depth--
			it = c.counted("filter", conds[i].Detail, 0, newFilterIter(c.st, it, conds[i].Cond))
		}
		c.depth = base
		return it, props, nil
	}
	l, lp, err := c.child(ln)
	if err != nil {
		return nil, rowProps{}, err
	}
	r, rp, err := c.child(rn)
	if err != nil {
		return nil, rowProps{}, err
	}
	op := "hashjoin"
	if leftOuter {
		op = "leftjoin"
	}
	h := newHashJoinIter(l, r, leftOuter)
	h.acct = c.acct
	it := c.counted(op, "", 0, h)
	h.stats = c.lastStats()
	return it, joinProps(lp, rp, l.Vars(), r.Vars(), leftOuter), nil
}

// ---------------------------------------------------------------------------
// The volcano engine: the streaming executor behind the materializing
// Engine interface, so the existing *Result API and the reference-engine
// parity tests cover it unchanged.

type volcanoEngine struct{}

// NewVolcano returns the streaming Volcano engine: cost-based plans from
// internal/plan executed as an Open/Next/Close iterator tree. Evaluate
// materializes the stream; callers that want rows incrementally use
// Compile.
func NewVolcano() Engine { return volcanoEngine{} }

func (volcanoEngine) Name() string { return "volcano" }

func (volcanoEngine) Evaluate(ctx context.Context, st *storage.Store, q *sparql.Query) (*Result, error) {
	ex, err := Compile(st, q, plan.Options{})
	if err != nil {
		return nil, err
	}
	return Drain(ctx, ex)
}

// Drain opens the execution, materializes every row into a Result (see
// Append) and closes it; the tree polls ctx once per pull. The Exec's
// operator counters remain readable after Drain returns.
func Drain(ctx context.Context, ex *Exec) (*Result, error) {
	if err := ex.Open(ctx); err != nil {
		ex.Close()
		return nil, err
	}
	defer ex.Close()
	out := NewResult(ex.Vars()...)
	if err := ex.Append(out); err != nil {
		return nil, err
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Operators.

// batchMax is the most rows a pull moves: 256 rows, 1 KB per column.
// batchRows is the limit in force, shrunk only by tests to move the
// window boundaries.
const batchMax = 256

var batchRows = batchMax

// input is an operator's read side of its child (and Pull's of the
// tree): the child's last window, whose rows the operator reads by
// offset. The window's array belongs to the operator; it is sized by the
// largest pull and kept across executions, so a re-Opened tree pulls
// without allocating.
type input struct {
	it  Iterator
	w   int   // the child's row width
	win block // the child's last window
	pos int   // rows of win already read
}

// pull reads the child's next window of at most n rows; false: the end.
func (in *input) pull(n int) (bool, error) {
	n = min(n, batchRows)
	if cap(in.win.ids) < n*in.w {
		in.win.ids = make([]storage.NodeID, 0, n*in.w)
	}
	in.reset()
	err := in.it.Next(&in.win, n)
	return in.win.n > 0 && err == nil, err
}

// reset empties the window, keeping its array.
func (in *input) reset() { in.win.truncate(0, in.w); in.pos = 0 }

// drained reports whether every row of the window has been read.
func (in *input) drained() bool { return in.pos == in.win.n }

// take reads the next row of the window and returns its offset.
func (in *input) take() int { in.pos++; return (in.pos - 1) * in.w }

// countedIter counts its operator's pulls and rows, and polls ctx once
// per pull, so cancellation reaches every operator boundary of the tree.
// With timed set (tracing/EXPLAIN ANALYZE) it also accumulates inclusive
// wall-clock time.
type countedIter struct {
	in    Iterator
	ctx   context.Context
	timed bool
	stats OperatorStats
}

func (c *countedIter) Open(ctx context.Context) error { c.ctx = ctx; return c.in.Open(ctx) }
func (c *countedIter) Close() error                   { c.ctx = nil; return c.in.Close() }
func (c *countedIter) Vars() []string                 { return c.in.Vars() }

//dualsim:hotpath
func (c *countedIter) Next(dst *block, limit int) error {
	if err := ctxErr(c.ctx); err != nil {
		return err
	}
	c.stats.NextCalls++
	n := dst.n
	var t0 time.Time
	if c.timed {
		t0 = time.Now()
	}
	err := c.in.Next(dst, limit)
	if c.timed {
		c.stats.Time += time.Since(t0)
	}
	c.stats.Rows += int64(dst.n - n)
	return err
}

// unitIter produces the single empty mapping: one row of width 0.
type unitIter struct{ done bool }

func (u *unitIter) Open(ctx context.Context) error { u.done = false; return nil }
func (u *unitIter) Close() error                   { return nil }
func (u *unitIter) Vars() []string                 { return nil }

//dualsim:hotpath
func (u *unitIter) Next(dst *block, limit int) error {
	if !u.done {
		u.done = true
		dst.push(0)
	}
	return nil
}

// extendIter is the pipelined index-nested-loop join of an input stream
// with one triple pattern, and the one operator that reads triples. Each
// input row is extended through the cheapest access path — a membership
// test, a posting-list walk, or a cursor over the PSO positions the view
// holds (the kept-triple mask's set bits under a filter) — cursor-style:
// a full window ends a pull, the next resumes the cursor, and ctx is
// polled every rowCheckInterval steps inside a window too. A leaf scan is
// its unit-input case: the extension of the single empty mapping µ∅. With
// leftOuter it implements OPTIONAL against a scan: input rows with no
// extension survive padded.
type extendIter struct {
	st       *storage.Store
	in       input
	r        resolved
	filtered *int64 // the operator's Filtered counter

	vars   []string
	w      int // output width, len(vars)
	inVars int // input schema width (a prefix of vars)
	// Output columns of the pattern's subject and object, resolved once:
	// -1 for a constant. sameVar is the ?x p ?x pattern.
	sCol, oCol int

	// Cursor over the extensions of the current input row, which is read
	// by its offset cur into the input's window.
	cur        int
	list       []storage.NodeID // posting list (one side known), read in place
	alive      []*bitvec.Vector // see resolved.postings
	li         int
	pi         int // pair cursor (neither side known)
	sVal, oVal storage.NodeID

	ctx context.Context
	n   int

	// The flags come last, so that they share one word.
	unit                          unitIter // the input of a leaf scan
	leftOuter, sameVar            bool
	have, sKnown, oKnown, matched bool
}

// newExtendIter extends in's rows by r; a nil in is the unit row, which
// makes the operator a leaf scan of r.
func newExtendIter(st *storage.Store, in Iterator, r resolved, leftOuter bool) *extendIter {
	e := &extendIter{st: st, in: input{it: in}, r: r, leftOuter: leftOuter, sCol: -1, oCol: -1}
	if in == nil {
		e.in.it = &e.unit
	}
	e.vars = slices.Clone(e.in.it.Vars())
	e.inVars = len(e.vars)
	col := func(v string) int {
		if v == "" {
			return -1
		}
		i := slices.Index(e.vars, v)
		if i < 0 {
			i = len(e.vars)
			e.vars = append(e.vars, v)
		}
		return i
	}
	e.sCol, e.oCol = col(r.sVar), col(r.oVar)
	e.sameVar = r.sVar != "" && r.sVar == r.oVar
	e.in.w, e.w = e.inVars, len(e.vars)
	return e
}

func (e *extendIter) Vars() []string { return e.vars }

func (e *extendIter) Close() error {
	e.in.reset()
	e.ctx, e.list = nil, nil
	return e.in.it.Close()
}

func (e *extendIter) Open(ctx context.Context) error {
	e.ctx, e.n = ctx, 0
	e.have = false
	e.in.reset()
	return e.in.it.Open(ctx)
}

// emit appends an output row to dst: the current input row, with the
// pattern's variables set to (s, o) when ext is true — which binds every
// column past the input's — and padded with Unbound otherwise.
//
//dualsim:hotpath
func (e *extendIter) emit(dst *block, ext bool, s, o storage.NodeID) {
	nr := dst.push(e.w)
	copy(nr, e.in.win.ids[e.cur:e.cur+e.inVars])
	if !ext {
		for i := e.inVars; i < len(nr); i++ {
			nr[i] = Unbound
		}
		return
	}
	if e.sCol >= 0 {
		nr[e.sCol] = s
	}
	if e.oCol >= 0 {
		nr[e.oCol] = o
	}
}

// known resolves a pattern position against the current input row: the
// constant, or the row's binding of the variable when it has one.
func (e *extendIter) known(col int, constID storage.NodeID) (storage.NodeID, bool) {
	if col < 0 {
		return constID, true
	}
	if col < e.inVars {
		if v := e.in.win.ids[e.cur+col]; v != Unbound {
			return v, true
		}
	}
	return 0, false
}

//dualsim:hotpath
func (e *extendIter) Next(dst *block, limit int) error {
	r := &e.r
	for dst.n < limit {
		if e.n++; e.n%rowCheckInterval == 0 {
			if err := ctxErr(e.ctx); err != nil {
				return err
			}
		}
		if e.have {
			switch {
			case e.sKnown && e.oKnown:
				e.have = false
				if r.has(e.st, e.sVal, e.oVal, e.filtered) {
					e.emit(dst, true, e.sVal, e.oVal)
				} else if e.leftOuter {
					e.emit(dst, false, 0, 0)
				}
				continue
			case e.sKnown || e.oKnown:
				// The posting-list walk: its cursor stays in locals. The
				// known side is a constant or bound by the input row, so
				// an extension is the input row with the other side's
				// column set.
				list, li, n := e.list, e.li, e.n
				in, w, col := e.in.win.ids[e.cur:e.cur+e.inVars], e.w, e.oCol
				if !e.sKnown {
					col = e.sCol
				}
				for li < len(list) && dst.n < limit {
					id := list[li]
					li++
					if n++; n%rowCheckInterval == 0 {
						if err := ctxErr(e.ctx); err != nil {
							e.li, e.n = li, n
							return err
						}
					}
					if !admits(e.alive, id) {
						*e.filtered++
						continue
					}
					e.matched = true
					nr := dst.push(w)
					copy(nr, in)
					nr[col] = id
				}
				e.li, e.n = li, n
				if li < len(list) {
					return nil
				}
			default:
				if i := r.nextPos(e.st, e.pi); i >= 0 {
					subjects, objects := e.st.PSO(r.pred)
					s, o := subjects[i], objects[i]
					e.pi = i + 1
					if !e.sameVar || s == o {
						e.matched = true
						e.emit(dst, true, s, o)
					}
					continue
				}
			}
			// Cursor exhausted; the window has room for the padding.
			e.have = false
			if e.leftOuter && !e.matched {
				e.emit(dst, false, 0, 0)
			}
			continue
		}

		if e.in.drained() {
			if ok, err := e.in.pull(limit - dst.n); !ok {
				return err
			}
		}
		e.cur = e.in.take()
		if !r.ok {
			// Unsatisfiable pattern: no extensions ever.
			if e.leftOuter {
				e.emit(dst, false, 0, 0)
			}
			continue
		}
		e.have = true
		e.matched = false
		e.li, e.pi = 0, 0
		e.sVal, e.sKnown = e.known(e.sCol, r.sID)
		e.oVal, e.oKnown = e.known(e.oCol, r.oID)
		switch {
		case e.sKnown && e.oKnown:
		case e.sKnown:
			e.walk(e.sVal, true)
		case e.oKnown:
			e.walk(e.oVal, false)
		}
	}
	return nil
}

// walk starts the posting-list walk from the known endpoint id. The
// candidate sets are appended to the operator's scratch, which is stored
// back only when it grew: a slice stored whole stores a pointer.
//
//dualsim:hotpath
func (e *extendIter) walk(id storage.NodeID, subject bool) {
	list, alive := e.r.postings(e.st, id, subject, e.alive[:0])
	e.list = list
	if cap(alive) == cap(e.alive) {
		e.alive = e.alive[:len(alive)]
	} else {
		e.alive = alive
	}
}

// hashJoinIter is the generic compatibility join: Open drains the right
// side into a block of its own and buckets it on a 64-bit hash of the
// shared columns (rows with an unbound shared variable go to a wildcard
// list), then the left side streams through, probing. A bucket is a chain
// through an index array, and every candidate is verified by compatible,
// so neither a hash collision nor two hashes sharing a bucket can produce
// a wrong match. With leftOuter, unmatched left rows survive padded.
type hashJoinIter struct {
	l         input
	r         Iterator
	leftOuter bool

	vars  []string
	w, rw int // output and right row widths
	// Column maps, computed once: the shared variables' columns on each
	// side (position-aligned), and the output column of each right column.
	lIdx, rIdx []int
	rOut       []int

	// Build side: the drained right rows; heads[bucket] and next[row] hold
	// row index + 1 (0 ends a chain).
	build     block
	heads     []int32
	next      []int32
	wildcards []int32

	// Probe state: the candidates of the current left row (at offset lrow
	// of the left window) are, in order, its bucket chain and then the
	// wildcards — or every right row when the left row itself has an
	// unbound shared variable. It survives a full window: the next pull
	// resumes the same left row.
	lrow    int
	haveL   bool
	chain   int32 // next chain candidate + 1
	wi      int   // wildcard cursor
	scanAll bool
	ci      int // scanAll cursor
	matched bool

	// resource accounting: the drained right side is the build-side
	// buffer this operator charges against the execution's budget.
	acct  *account
	stats *OperatorStats
}

func newHashJoinIter(l, r Iterator, leftOuter bool) *hashJoinIter {
	h := &hashJoinIter{l: input{it: l, w: len(l.Vars())}, r: r, leftOuter: leftOuter, rw: len(r.Vars())}
	lres := NewResult(l.Vars()...)
	rres := NewResult(r.Vars()...)
	shared := sharedVars(lres, rres)
	h.vars = unionVars(lres, rres)
	h.w = len(h.vars)
	h.lIdx = varIndexes(lres, shared)
	h.rIdx = varIndexes(rres, shared)
	h.rOut = varIndexes(NewResult(h.vars...), rres.Vars)
	return h
}

func (h *hashJoinIter) Vars() []string { return h.vars }

// Close drops the build side and the probe cursor.
func (h *hashJoinIter) Close() error {
	h.l.reset()
	h.build, h.heads, h.next, h.wildcards = block{}, nil, nil, nil
	err := h.l.it.Close()
	if err2 := h.r.Close(); err == nil {
		err = err2
	}
	return err
}

func (h *hashJoinIter) Open(ctx context.Context) error {
	h.haveL = false
	h.l.reset()
	h.build.truncate(0, h.rw)
	h.wildcards = h.wildcards[:0]
	if err := h.l.it.Open(ctx); err != nil {
		return err
	}
	if err := h.r.Open(ctx); err != nil {
		return err
	}
	// The right side appends its windows straight onto the build block.
	for {
		n := h.build.n
		h.build.ids = slices.Grow(h.build.ids, batchRows*h.rw)
		if err := h.r.Next(&h.build, n+batchRows); err != nil {
			return err
		}
		k := int64(h.build.n - n)
		if k == 0 {
			break
		}
		if err := h.acct.charge(h.stats, k, k*rowCostBytes(h.rw)); err != nil {
			return err
		}
	}
	// Bucket the drained rows. Linking back to front keeps every chain
	// (and, reversed once, the wildcard list) in arrival order.
	nb := 1
	for nb < 2*h.build.n {
		nb <<= 1
	}
	h.heads = make([]int32, nb)
	h.next = make([]int32, h.build.n)
	for i := h.build.n - 1; i >= 0; i-- {
		row := h.build.row(i, h.rw)
		if !allBound(row, h.rIdx) {
			h.wildcards = append(h.wildcards, int32(i))
			continue
		}
		b := hashCols(row, h.rIdx) & uint64(nb-1)
		h.next[i] = h.heads[b]
		h.heads[b] = int32(i + 1)
	}
	slices.Reverse(h.wildcards)
	return nil
}

// compatible implements µ1 ⇋ µ2 over the precomputed shared columns:
// agreement on every shared variable bound in both mappings.
//
//dualsim:hotpath
func (h *hashJoinIter) compatible(lrow, rrow []storage.NodeID) bool {
	for k, li := range h.lIdx {
		lv, rv := lrow[li], rrow[h.rIdx[k]]
		if lv != Unbound && rv != Unbound && lv != rv {
			return false
		}
	}
	return true
}

// merge appends to dst the output row of a left row and a right row (l's
// vars are a prefix of the output schema; bound right values win over
// padding). A nil rrow pads the left row only.
//
//dualsim:hotpath
func (h *hashJoinIter) merge(dst *block, lrow, rrow []storage.NodeID) {
	merged := dst.push(h.w)
	copy(merged, lrow)
	for k := len(lrow); k < len(merged); k++ {
		merged[k] = Unbound
	}
	for j, v := range rrow {
		if v != Unbound {
			merged[h.rOut[j]] = v
		}
	}
}

//dualsim:hotpath
func (h *hashJoinIter) Next(dst *block, limit int) error {
	lw := h.l.w
	for dst.n < limit {
		if !h.haveL {
			if h.l.drained() {
				if ok, err := h.l.pull(limit - dst.n); !ok {
					return err
				}
			}
			h.lrow, h.haveL = h.l.take(), true
			h.ci, h.wi, h.chain = 0, 0, 0
			h.matched = false
			lrow := h.l.win.ids[h.lrow : h.lrow+lw]
			h.scanAll = !allBound(lrow, h.lIdx)
			if !h.scanAll {
				h.chain = h.heads[hashCols(lrow, h.lIdx)&uint64(len(h.heads)-1)]
			}
		}
		lrow := h.l.win.ids[h.lrow : h.lrow+lw]
		for h.haveL && dst.n < limit {
			var ri int
			switch {
			case h.scanAll && h.ci < h.build.n:
				ri = h.ci
				h.ci++
			case h.chain != 0:
				ri = int(h.chain - 1)
				h.chain = h.next[ri]
			case !h.scanAll && h.wi < len(h.wildcards):
				ri = int(h.wildcards[h.wi])
				h.wi++
			default:
				// Candidates exhausted; the window has room for the padding.
				h.haveL = false
				if h.leftOuter && !h.matched {
					h.merge(dst, lrow, nil)
				}
				continue
			}
			if rrow := h.build.row(ri, h.rw); h.compatible(lrow, rrow) {
				h.matched = true
				h.merge(dst, lrow, rrow)
			}
		}
	}
	return nil
}

// filterIter keeps the rows whose condition evaluates to true.
type filterIter struct {
	st   *storage.Store
	in   Iterator
	w    int
	cond sparql.Condition
	cols map[string]int
}

func newFilterIter(st *storage.Store, in Iterator, cond sparql.Condition) *filterIter {
	cols := make(map[string]int)
	for i, v := range in.Vars() {
		cols[v] = i
	}
	return &filterIter{st: st, in: in, w: len(in.Vars()), cond: cond, cols: cols}
}

func (f *filterIter) Vars() []string                 { return f.in.Vars() }
func (f *filterIter) Open(ctx context.Context) error { return f.in.Open(ctx) }
func (f *filterIter) Close() error                   { return f.in.Close() }

//dualsim:hotpath
func (f *filterIter) Next(dst *block, limit int) error {
	return pullKept(f.in, f.w, dst, limit, f.keep)
}

func (f *filterIter) keep(row []storage.NodeID) (bool, error) {
	v, e := evalCond(f.st, f.cond, f.cols, row)
	return v && !e, nil
}

// pullKept pulls windows of in into dst until keep retains a row or the
// stream ends, compacting the kept rows (of width w) in place.
//
//dualsim:hotpath
func pullKept(in Iterator, w int, dst *block, limit int, keep func([]storage.NodeID) (bool, error)) error {
	n, base := dst.n, len(dst.ids)
	for {
		if err := in.Next(dst, limit); err != nil || dst.n == n {
			return err
		}
		k := 0
		for i := range dst.n - n {
			row := dst.tail(base, i, w)
			ok, err := keep(row)
			if err != nil {
				dst.cut(n, base, k, w)
				return err
			}
			if ok {
				copy(dst.ids[base+k*w:], row)
				k++
			}
		}
		dst.cut(n, base, k, w)
		if k > 0 {
			return nil
		}
	}
}

// unionIter streams the left side, then the right: each side appends its
// rows to the window at its own width, and the union remaps them there,
// in place, to the union schema.
type unionIter struct {
	l, r   Iterator
	vars   []string
	lw, rw int
	lMap   []int // output column of each left column
	rMap   []int
	// lSame and rSame: that side's rows already are union rows.
	lSame, rSame bool
	scratch      []storage.NodeID // a window of input rows, for remap
	onRight      bool
}

func newUnionIter(l, r Iterator) *unionIter {
	lres := NewResult(l.Vars()...)
	rres := NewResult(r.Vars()...)
	out := NewResult(unionVars(lres, rres)...)
	u := &unionIter{l: l, r: r, vars: out.Vars, lw: len(lres.Vars), rw: len(rres.Vars),
		lMap: varIndexes(out, lres.Vars), rMap: varIndexes(out, rres.Vars)}
	u.lSame, u.rSame = isIdentity(u.lMap, len(u.vars)), isIdentity(u.rMap, len(u.vars))
	u.scratch = make([]storage.NodeID, batchMax*max(u.lw, u.rw))
	return u
}

func (u *unionIter) Vars() []string { return u.vars }

func (u *unionIter) Open(ctx context.Context) error {
	u.onRight = false
	if err := u.l.Open(ctx); err != nil {
		return err
	}
	return u.r.Open(ctx)
}

func (u *unionIter) Close() error {
	err := u.l.Close()
	if err2 := u.r.Close(); err == nil {
		err = err2
	}
	return err
}

//dualsim:hotpath
func (u *unionIter) Next(dst *block, limit int) error {
	n, base := dst.n, len(dst.ids)
	if !u.onRight {
		err := u.l.Next(dst, limit)
		if !u.lSame {
			dst.remap(n, base, u.lw, len(u.vars), u.lMap, u.scratch)
		}
		if err != nil || dst.n > n {
			return err
		}
		u.onRight = true
	}
	err := u.r.Next(dst, limit)
	if !u.rSame {
		dst.remap(n, base, u.rw, len(u.vars), u.rMap, u.scratch)
	}
	return err
}

// isIdentity reports whether the column map m sends a row of width w to
// itself.
func isIdentity(m []int, w int) bool {
	for i, j := range m {
		if i != j {
			return false
		}
	}
	return len(m) == w
}

// distinctIter drops rows already seen (set semantics). Its seen-set is
// a buffering point: every distinct row is copied into it and charged to
// the execution account. The compiler adds it only above a plan whose
// rows may repeat (rowProps).
type distinctIter struct {
	in    Iterator
	w     int
	seen  *rowSet
	acct  *account
	stats *OperatorStats
}

func (d *distinctIter) Vars() []string { return d.in.Vars() }
func (d *distinctIter) Close() error   { d.seen = nil; return d.in.Close() }

func (d *distinctIter) Open(ctx context.Context) error {
	d.seen = newRowSet(d.w)
	return d.in.Open(ctx)
}

//dualsim:hotpath
func (d *distinctIter) Next(dst *block, limit int) error {
	return pullKept(d.in, d.w, dst, limit, d.keep)
}

// keep admits a row's first sighting, charging it to the account.
func (d *distinctIter) keep(row []storage.NodeID) (bool, error) {
	if !d.seen.add(row) {
		return false, nil
	}
	return true, d.acct.charge(d.stats, 1, rowCostBytes(d.w))
}

// limitIter emits the first limit distinct rows after skipping offset
// distinct rows, then stops pulling from its input — the early-exit that
// makes LIMIT queries cheap under streaming execution; it never asks its
// input for more rows than the offset and limit still need. Counting
// distinct rows (rather than raw ones) keeps per-branch LIMIT pushdown
// sound under set semantics; with dedup false the input is known to be a
// set and the window just counts, buffering nothing.
type limitIter struct {
	in      Iterator
	w       int
	limit   int // 0 = unlimited
	offset  int
	dedup   bool
	seen    *rowSet
	skipped int
	emitted int
	acct    *account
	stats   *OperatorStats
}

func (l *limitIter) Vars() []string { return l.in.Vars() }
func (l *limitIter) Close() error   { l.seen = nil; return l.in.Close() }

func (l *limitIter) Open(ctx context.Context) error {
	if l.dedup {
		l.seen = newRowSet(l.w)
	}
	l.skipped = 0
	l.emitted = 0
	return l.in.Open(ctx)
}

//dualsim:hotpath
func (l *limitIter) Next(dst *block, limit int) error {
	n, base, w := dst.n, len(dst.ids), l.w
	for l.limit == 0 || l.emitted < l.limit {
		win := limit
		if l.limit > 0 {
			win = min(win, n+l.offset-l.skipped+l.limit-l.emitted)
		}
		if err := l.in.Next(dst, win); err != nil || dst.n == n {
			dst.cut(n, base, 0, w)
			return err
		}
		k := 0
		for i := range dst.n - n {
			row := dst.tail(base, i, w)
			if l.dedup {
				if !l.seen.add(row) {
					continue
				}
				if err := l.acct.charge(l.stats, 1, rowCostBytes(w)); err != nil {
					dst.cut(n, base, k, w)
					return err
				}
			}
			if l.skipped < l.offset {
				l.skipped++
				continue
			}
			copy(dst.ids[base+k*w:], row)
			k++
			l.emitted++
		}
		dst.cut(n, base, k, w)
		if k > 0 {
			return nil
		}
	}
	return nil
}
