package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
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
// prepares the operator, Close releases resources, and Next appends at
// most cap(dst)−len(dst) rows to dst (so the result shares dst's array)
// and appends none only at end of stream. Rows are positional over Vars,
// with Unbound for positions outside dom(µ). The window and the rows are
// the caller's: an operator writes only past len(dst), and never reuses
// or rewrites a row it handed out. Rows are carved from the execution's
// slab, so they are capacity-limited (an append copies) and may be
// retained by a buffering operator downstream — treat them as read-only.
type Iterator interface {
	Open(ctx context.Context) error
	Next(dst [][]storage.NodeID) ([][]storage.NodeID, error)
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
// Open. Rows handed out by an earlier execution stay valid: the slab
// never carves memory twice.
type Exec struct {
	root      input          // the tree, and Pull's window over it
	its       []*countedIter // the operators, in registration order
	decisions []string
	acct      *account
	window    int  // size of Pull's last window
	timed     bool // the next Open times its operators (EnableTiming)
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
	e.window, e.root.rows = 0, nil
	if err := ctxErr(ctx); err != nil {
		return err
	}
	return e.root.it.Open(ctx)
}

func (e *Exec) Vars() []string { return e.root.it.Vars() }

// Close ends the execution. The counters stay readable until the next
// Open; the rows the operators buffered are dropped.
func (e *Exec) Close() error { e.root.release(); return e.root.it.Close() }

// Pull returns the next window of rows, empty at end of stream: 1, 2, 4
// … up to batchRows rows, so the first row costs one row of work. The
// window is overwritten by the next Pull; its rows are the caller's.
func (e *Exec) Pull() ([][]storage.NodeID, error) {
	e.window = min(max(2*e.window, 1), batchRows)
	_, err := e.root.pull(e.window)
	return e.root.rows, err
}

// Append pulls every remaining row straight into dst's spare capacity,
// a batch at a time, and returns the extended slice. A full dst grows
// only when Pull's window holds more rows, not to see the end, and then
// row by row, so it takes the capacities a row-at-a-time append would.
func (e *Exec) Append(dst [][]storage.NodeID) ([][]storage.NodeID, error) {
	for {
		n := len(dst)
		if n == cap(dst) {
			ok, err := e.root.pull(batchRows)
			if !ok {
				return dst, err
			}
			for _, row := range e.root.rows {
				dst = append(dst, row)
			}
			continue
		}
		got, err := e.root.it.Next(dst[:n:min(cap(dst), n+batchRows)])
		dst = dst[:len(got)]
		if err != nil || len(dst) == n {
			return dst, err
		}
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

// Buffered-row cost model: a retained []NodeID row plus its slice header
// and table slot. An estimate, not an exact heap size — stable across
// runs, cheap to maintain, good enough to rank statements and to bound
// runaway queries.
const rowOverheadBytes = 48

func rowCostBytes(row []storage.NodeID) int64 {
	return rowOverheadBytes + int64(len(row))*int64(unsafe.Sizeof(storage.NodeID(0)))
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
func CompilePlan(st *storage.Store, pl *plan.Plan) (*Exec, error) {
	c := &compiler{st: st, filter: pl.Filter, acct: &account{}, slab: &slab{}}
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
		d := &distinctIter{in: root, acct: c.acct}
		root = c.counted("distinct", "", 0, d)
		d.stats = c.lastStats()
	}
	return &Exec{root: input{it: root}, its: c.its, decisions: pl.Decisions, acct: c.acct}, nil
}

// ---------------------------------------------------------------------------
// Compiler.

type compiler struct {
	st     *storage.Store
	filter storage.Filter // nil: the patterns read st's index columns
	its    []*countedIter
	depth  int // plan-tree depth of the node currently being compiled
	acct   *account
	slab   *slab // the execution's row allocator, shared by every operator
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
	}
	return r, nil
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
		sc := newExtendIter(c.st, nil, r, false, c.slab)
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
		return c.counted("union", "", 0, newUnionIter(l, r, c.slab)), unionProps(lp, rp), nil
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
		li := &limitIter{in: in, limit: x.Limit, offset: x.Offset, dedup: !props.distinct, acct: c.acct}
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
		ext := newExtendIter(c.st, l, r, leftOuter, c.slab)
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
	h := newHashJoinIter(l, r, leftOuter, c.slab)
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
	var err error
	if out.Rows, err = ex.Append(out.Rows); err != nil {
		return nil, err
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Operators.

// batchMax is the most rows a pull moves: 256 row headers, 6 KB.
// batchRows is the limit in force, shrunk only by tests to move the
// window boundaries.
const batchMax = 256

var batchRows = batchMax

// batchPool recycles input windows' header buffers across executions:
// a small query allocates none.
var batchPool = sync.Pool{New: func() any { return new([batchMax][]storage.NodeID) }}

// input is an operator's read side of its child (and Pull's of the
// tree): a batchPool buffer, taken at the first pull, returned at Close.
type input struct {
	it   Iterator
	buf  *[batchMax][]storage.NodeID
	rows [][]storage.NodeID // the unread rest of the current window
	hw   int                // high-water mark of buf: what release clears
}

// pull reads the child's next window of at most n rows; false: the end.
func (in *input) pull(n int) (bool, error) {
	if in.buf == nil {
		in.buf = batchPool.Get().(*[batchMax][]storage.NodeID)
	}
	rows, err := in.it.Next(in.buf[:0:min(n, batchRows)])
	in.rows, in.hw = rows, max(in.hw, len(rows))
	return len(rows) > 0 && err == nil, err
}

// release returns the buffer, cleared so that the pool retains no row.
func (in *input) release() {
	if in.buf != nil {
		clear(in.buf[:in.hw])
		batchPool.Put(in.buf)
		in.buf, in.hw = nil, 0
	}
	in.rows = nil
}

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
func (c *countedIter) Next(dst [][]storage.NodeID) ([][]storage.NodeID, error) {
	if err := ctxErr(c.ctx); err != nil {
		return dst, err
	}
	c.stats.NextCalls++
	n := len(dst)
	var t0 time.Time
	if c.timed {
		t0 = time.Now()
	}
	dst, err := c.in.Next(dst)
	if c.timed {
		c.stats.Time += time.Since(t0)
	}
	c.stats.Rows += int64(len(dst) - n)
	return dst, err
}

// unitRow is the empty mapping: with no capacity, nobody can write it.
var unitRow = make([]storage.NodeID, 0)

// unitIter produces the single empty mapping.
type unitIter struct{ done bool }

func (u *unitIter) Open(ctx context.Context) error { u.done = false; return nil }
func (u *unitIter) Close() error                   { return nil }
func (u *unitIter) Vars() []string                 { return nil }

//dualsim:hotpath
func (u *unitIter) Next(dst [][]storage.NodeID) ([][]storage.NodeID, error) {
	if u.done {
		return dst, nil
	}
	u.done = true
	return append(dst, unitRow), nil
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
	slab     *slab
	filtered *int64 // the operator's Filtered counter

	vars   []string
	inVars int // input schema width (a prefix of vars)
	// Output columns of the pattern's subject and object, resolved once:
	// -1 for a constant. sameVar is the ?x p ?x pattern.
	sCol, oCol int

	// Cursor over the extensions of the current input row, which is read
	// in place (the input's rows are never rewritten).
	row        []storage.NodeID
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
func newExtendIter(st *storage.Store, in Iterator, r resolved, leftOuter bool, sl *slab) *extendIter {
	e := &extendIter{st: st, in: input{it: in}, r: r, leftOuter: leftOuter, slab: sl, sCol: -1, oCol: -1}
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
	return e
}

func (e *extendIter) Vars() []string { return e.vars }

func (e *extendIter) Close() error {
	e.in.release()
	e.ctx, e.row = nil, nil
	return e.in.it.Close()
}

func (e *extendIter) Open(ctx context.Context) error {
	e.ctx, e.n = ctx, 0
	e.have, e.in.rows = false, nil
	return e.in.it.Open(ctx)
}

// emit builds an output row: the current input row, with the pattern's
// variables set to (s, o) when ext is true — which binds every column
// past the input's — and padded with Unbound otherwise.
//
//dualsim:hotpath
func (e *extendIter) emit(ext bool, s, o storage.NodeID) []storage.NodeID {
	nr := e.slab.alloc(len(e.vars))
	copy(nr, e.row)
	if !ext {
		for i := e.inVars; i < len(nr); i++ {
			nr[i] = Unbound
		}
		return nr
	}
	if e.sCol >= 0 {
		nr[e.sCol] = s
	}
	if e.oCol >= 0 {
		nr[e.oCol] = o
	}
	return nr
}

// known resolves a pattern position against the current input row: the
// constant, or the row's binding of the variable when it has one.
func (e *extendIter) known(col int, constID storage.NodeID) (storage.NodeID, bool) {
	if col < 0 {
		return constID, true
	}
	if col < e.inVars && e.row[col] != Unbound {
		return e.row[col], true
	}
	return 0, false
}

//dualsim:hotpath
func (e *extendIter) Next(dst [][]storage.NodeID) ([][]storage.NodeID, error) {
	r := &e.r
	for len(dst) < cap(dst) {
		if e.n++; e.n%rowCheckInterval == 0 {
			if err := ctxErr(e.ctx); err != nil {
				return dst, err
			}
		}
		if e.have {
			switch {
			case e.sKnown && e.oKnown:
				e.have = false
				if r.has(e.st, e.sVal, e.oVal, e.filtered) {
					dst = append(dst, e.emit(true, e.sVal, e.oVal))
				} else if e.leftOuter {
					dst = append(dst, e.emit(false, 0, 0))
				}
				continue
			case e.sKnown || e.oKnown:
				// The posting-list walk: its cursor stays in locals.
				list, li, n := e.list, e.li, e.n
				for li < len(list) && len(dst) < cap(dst) {
					id := list[li]
					li++
					if n++; n%rowCheckInterval == 0 {
						if err := ctxErr(e.ctx); err != nil {
							e.li, e.n = li, n
							return dst, err
						}
					}
					if !admits(e.alive, id) {
						*e.filtered++
						continue
					}
					s, o := e.sVal, id
					if e.matched = true; !e.sKnown {
						s, o = id, e.oVal
					}
					dst = append(dst, e.emit(true, s, o))
				}
				e.li, e.n = li, n
				if li < len(list) {
					return dst, nil
				}
			default:
				if i := r.nextPos(e.st, e.pi); i >= 0 {
					s, o := e.st.PairAt(r.pred, i)
					e.pi = i + 1
					if !e.sameVar || s == o {
						e.matched = true
						dst = append(dst, e.emit(true, s, o))
					}
					continue
				}
			}
			// Cursor exhausted; the window has room for the padding.
			e.have = false
			if e.leftOuter && !e.matched {
				dst = append(dst, e.emit(false, 0, 0))
			}
			continue
		}

		if len(e.in.rows) == 0 {
			if ok, err := e.in.pull(cap(dst) - len(dst)); !ok {
				return dst, err
			}
		}
		e.row, e.in.rows = e.in.rows[0], e.in.rows[1:]
		if !r.ok {
			// Unsatisfiable pattern: no extensions ever.
			if e.leftOuter {
				dst = append(dst, e.emit(false, 0, 0))
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
			e.list, e.alive = r.postings(e.st, e.sVal, true, e.alive[:0])
		case e.oKnown:
			e.list, e.alive = r.postings(e.st, e.oVal, false, e.alive[:0])
		}
	}
	return dst, nil
}

// hashJoinIter is the generic compatibility join: Open drains the right
// side and buckets it on a 64-bit hash of the shared columns (rows with
// an unbound shared variable go to a wildcard list), then the left side
// streams through, probing. A bucket is a chain through an index array,
// and every candidate is verified by compatible, so neither a hash
// collision nor two hashes sharing a bucket can produce a wrong match.
// With leftOuter, unmatched left rows survive padded.
type hashJoinIter struct {
	l, r      input
	leftOuter bool
	slab      *slab

	vars []string
	// Column maps, computed once: the shared variables' columns on each
	// side (position-aligned), and the output column of each right column.
	lIdx, rIdx []int
	rOut       []int

	// Build side: the drained right rows; heads[bucket] and next[row] hold
	// row index + 1 (0 ends a chain).
	rows      [][]storage.NodeID
	heads     []int32
	next      []int32
	wildcards []int32

	// Probe state: the candidates of the current left row are, in order,
	// its bucket chain and then the wildcards — or every right row when
	// the left row itself has an unbound shared variable. It survives a
	// full window: the next pull resumes the same left row.
	lrow    []storage.NodeID
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

func newHashJoinIter(l, r Iterator, leftOuter bool, sl *slab) *hashJoinIter {
	h := &hashJoinIter{l: input{it: l}, r: input{it: r}, leftOuter: leftOuter, slab: sl}
	lres := NewResult(l.Vars()...)
	rres := NewResult(r.Vars()...)
	shared := sharedVars(lres, rres)
	h.vars = unionVars(lres, rres)
	h.lIdx = varIndexes(lres, shared)
	h.rIdx = varIndexes(rres, shared)
	h.rOut = varIndexes(NewResult(h.vars...), rres.Vars)
	return h
}

func (h *hashJoinIter) Vars() []string { return h.vars }

// Close drops the build side and the probe cursor with the windows.
func (h *hashJoinIter) Close() error {
	h.l.release()
	h.r.release()
	h.rows, h.heads, h.next, h.wildcards, h.lrow = nil, nil, nil, nil, nil
	err := h.l.it.Close()
	if err2 := h.r.it.Close(); err == nil {
		err = err2
	}
	return err
}

func (h *hashJoinIter) Open(ctx context.Context) error {
	h.haveL, h.l.rows = false, nil
	h.rows = h.rows[:0]
	h.wildcards = h.wildcards[:0]
	if err := h.l.it.Open(ctx); err != nil {
		return err
	}
	if err := h.r.it.Open(ctx); err != nil {
		return err
	}
	for ok := true; ok; {
		var err error
		if ok, err = h.r.pull(batchRows); err != nil {
			return err
		}
		for _, row := range h.r.rows {
			if err := h.acct.charge(h.stats, 1, rowCostBytes(row)); err != nil {
				return err
			}
		}
		h.rows = append(h.rows, h.r.rows...)
	}
	h.r.release() // the probe side takes it from the pool again
	// Bucket the drained rows. Linking back to front keeps every chain
	// (and, reversed once, the wildcard list) in arrival order.
	nb := 1
	for nb < 2*len(h.rows) {
		nb <<= 1
	}
	h.heads = make([]int32, nb)
	h.next = make([]int32, len(h.rows))
	for i := len(h.rows) - 1; i >= 0; i-- {
		if !allBound(h.rows[i], h.rIdx) {
			h.wildcards = append(h.wildcards, int32(i))
			continue
		}
		b := hashCols(h.rows[i], h.rIdx) & uint64(nb-1)
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

// merge builds the output row from a left row and a right row (l's vars
// are a prefix of the output schema; bound right values win over
// padding). A nil rrow pads the left row only.
//
//dualsim:hotpath
func (h *hashJoinIter) merge(lrow, rrow []storage.NodeID) []storage.NodeID {
	merged := h.slab.alloc(len(h.vars))
	copy(merged, lrow)
	for k := len(lrow); k < len(merged); k++ {
		merged[k] = Unbound
	}
	for j, v := range rrow {
		if v != Unbound {
			merged[h.rOut[j]] = v
		}
	}
	return merged
}

//dualsim:hotpath
func (h *hashJoinIter) Next(dst [][]storage.NodeID) ([][]storage.NodeID, error) {
	for len(dst) < cap(dst) {
		if !h.haveL {
			if len(h.l.rows) == 0 {
				if ok, err := h.l.pull(cap(dst) - len(dst)); !ok {
					return dst, err
				}
			}
			h.lrow, h.l.rows, h.haveL = h.l.rows[0], h.l.rows[1:], true
			h.ci, h.wi, h.chain = 0, 0, 0
			h.matched = false
			h.scanAll = !allBound(h.lrow, h.lIdx)
			if !h.scanAll {
				h.chain = h.heads[hashCols(h.lrow, h.lIdx)&uint64(len(h.heads)-1)]
			}
		}
		for h.haveL && len(dst) < cap(dst) {
			var ri int
			switch {
			case h.scanAll && h.ci < len(h.rows):
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
					dst = append(dst, h.merge(h.lrow, nil))
				}
				continue
			}
			if h.compatible(h.lrow, h.rows[ri]) {
				h.matched = true
				dst = append(dst, h.merge(h.lrow, h.rows[ri]))
			}
		}
	}
	return dst, nil
}

// filterIter keeps the rows whose condition evaluates to true.
type filterIter struct {
	st   *storage.Store
	in   Iterator
	cond sparql.Condition
	cols map[string]int
}

func newFilterIter(st *storage.Store, in Iterator, cond sparql.Condition) *filterIter {
	cols := make(map[string]int)
	for i, v := range in.Vars() {
		cols[v] = i
	}
	return &filterIter{st: st, in: in, cond: cond, cols: cols}
}

func (f *filterIter) Vars() []string                 { return f.in.Vars() }
func (f *filterIter) Open(ctx context.Context) error { return f.in.Open(ctx) }
func (f *filterIter) Close() error                   { return f.in.Close() }

//dualsim:hotpath
func (f *filterIter) Next(dst [][]storage.NodeID) ([][]storage.NodeID, error) {
	return pullKept(f.in, dst, f.keep)
}

func (f *filterIter) keep(row []storage.NodeID) (bool, error) {
	v, e := evalCond(f.st, f.cond, f.cols, row)
	return v && !e, nil
}

// pullKept pulls windows of in into dst until keep retains a row or the
// stream ends, compacting the kept rows in place.
//
//dualsim:hotpath
func pullKept(in Iterator, dst [][]storage.NodeID, keep func([]storage.NodeID) (bool, error)) ([][]storage.NodeID, error) {
	n := len(dst)
	for {
		got, err := in.Next(dst)
		if err != nil || len(got) == n {
			return got, err
		}
		k := n
		for _, row := range got[n:] {
			ok, err := keep(row)
			if err != nil {
				return got[:k], err
			}
			if ok {
				got[k] = row
				k++
			}
		}
		if k > n {
			return got[:k], nil
		}
	}
}

// unionIter streams the left side, then the right, both padded to the
// union schema.
type unionIter struct {
	l, r    Iterator
	slab    *slab
	vars    []string
	lMap    []int // output column of each left column
	rMap    []int
	onRight bool
}

func newUnionIter(l, r Iterator, sl *slab) *unionIter {
	lres := NewResult(l.Vars()...)
	rres := NewResult(r.Vars()...)
	out := NewResult(unionVars(lres, rres)...)
	return &unionIter{l: l, r: r, slab: sl, vars: out.Vars,
		lMap: varIndexes(out, lres.Vars), rMap: varIndexes(out, rres.Vars)}
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

// project replaces each row of a window, in place, by its padding to
// the union schema.
//
//dualsim:hotpath
func (u *unionIter) project(rows [][]storage.NodeID, m []int) {
	for r, row := range rows {
		out := u.slab.alloc(len(u.vars))
		for k := range out {
			out[k] = Unbound
		}
		for i, oj := range m {
			out[oj] = row[i]
		}
		rows[r] = out
	}
}

//dualsim:hotpath
func (u *unionIter) Next(dst [][]storage.NodeID) ([][]storage.NodeID, error) {
	n := len(dst)
	if !u.onRight {
		got, err := u.l.Next(dst)
		if err != nil {
			return got, err
		}
		if len(got) > n {
			u.project(got[n:], u.lMap)
			return got, nil
		}
		u.onRight = true
	}
	got, err := u.r.Next(dst)
	u.project(got[n:], u.rMap)
	return got, err
}

// distinctIter drops rows already seen (set semantics). Its seen-set is
// a buffering point: every distinct row is retained and charged to the
// execution account. The compiler adds it only above a plan whose rows
// may repeat (rowProps).
type distinctIter struct {
	in    Iterator
	seen  *rowSet
	acct  *account
	stats *OperatorStats
}

func (d *distinctIter) Vars() []string { return d.in.Vars() }
func (d *distinctIter) Close() error   { d.seen = nil; return d.in.Close() }

func (d *distinctIter) Open(ctx context.Context) error {
	d.seen = newRowSet()
	return d.in.Open(ctx)
}

//dualsim:hotpath
func (d *distinctIter) Next(dst [][]storage.NodeID) ([][]storage.NodeID, error) {
	return pullKept(d.in, dst, d.keep)
}

// keep admits a row's first sighting, charging it to the account.
func (d *distinctIter) keep(row []storage.NodeID) (bool, error) {
	if !d.seen.add(row) {
		return false, nil
	}
	return true, d.acct.charge(d.stats, 1, rowCostBytes(row))
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
		l.seen = newRowSet()
	}
	l.skipped = 0
	l.emitted = 0
	return l.in.Open(ctx)
}

//dualsim:hotpath
func (l *limitIter) Next(dst [][]storage.NodeID) ([][]storage.NodeID, error) {
	n := len(dst)
	for l.limit == 0 || l.emitted < l.limit {
		w := cap(dst)
		if l.limit > 0 {
			w = min(w, n+l.offset-l.skipped+l.limit-l.emitted)
		}
		got, err := l.in.Next(dst[:n:w])
		if err != nil || len(got) == n {
			return dst[:len(got)], err
		}
		k := n
		for _, row := range got[n:] {
			if l.dedup {
				if !l.seen.add(row) {
					continue
				}
				if err := l.acct.charge(l.stats, 1, rowCostBytes(row)); err != nil {
					return dst[:k], err
				}
			}
			if l.skipped < l.offset {
				l.skipped++
				continue
			}
			got[k] = row
			k++
			l.emitted++
		}
		if k > n {
			return dst[:k], nil
		}
	}
	return dst, nil
}
