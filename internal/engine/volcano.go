package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"time"
	"unsafe"

	"dualsim/internal/bitmat"
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

// Iterator is the Volcano operator interface: Open prepares the operator,
// Next produces one row at a time (rows are positional over Vars, with
// Unbound for positions outside dom(µ)), Close releases resources. The
// row returned by Next is owned by the caller: operators never reuse or
// rewrite a row they handed out. Rows are carved from the execution's
// slab, so they are capacity-limited (an append copies) and may be
// retained by a buffering operator downstream — treat them as read-only.
type Iterator interface {
	Open(ctx context.Context) error
	// Next returns the next row; ok is false at end of stream.
	Next() (row []storage.NodeID, ok bool, err error)
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
	// edges the store holds but pruning dropped. A leaf scan walks kept
	// positions only and reads 0, as does everything without a filter.
	Filtered int64 `json:"filtered,omitempty"`
	// MemBytes and RowsBuffered estimate the operator's build-side
	// footprint: hash-join right sides and the seen-sets of distinct and
	// of a limit over a possibly-duplicating input are the buffering
	// points of the tree; streaming operators stay 0.
	MemBytes     int64 `json:"memBytes,omitempty"`
	RowsBuffered int64 `json:"rowsBuffered,omitempty"`
	// NextCalls counts Next invocations on the operator, including the
	// final end-of-stream one — rows plus the pull overhead.
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
// optimizer's decision log). It implements Iterator; Operators reads the
// counters accumulated so far, so it is meaningful both mid-stream and
// after exhaustion.
type Exec struct {
	root      Iterator
	ops       []*OperatorStats
	its       []*countedIter
	decisions []string
	acct      *account
}

// Open prepares the tree. An already expired context fails here, before
// any operator builds its buffers.
func (e *Exec) Open(ctx context.Context) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	return e.root.Open(ctx)
}

func (e *Exec) Next() ([]storage.NodeID, bool, error) { return e.root.Next() }
func (e *Exec) Close() error                          { return e.root.Close() }
func (e *Exec) Vars() []string                        { return e.root.Vars() }

// Operators returns a snapshot of the per-operator counters in
// registration order — post-order over the plan tree (children before
// their parent, the outermost operator last). Together with each entry's
// Depth this is enough to rebuild the tree shape.
func (e *Exec) Operators() []OperatorStats {
	out := make([]OperatorStats, len(e.ops))
	for i, op := range e.ops {
		out[i] = *op
	}
	return out
}

// EnableTiming turns on per-operator wall-clock collection for this
// execution (OperatorStats.Time). Call before Open: timing costs two
// monotonic clock reads per Next per operator, so it is opt-in — the
// tracer and EXPLAIN ANALYZE enable it, the default path does not.
func (e *Exec) EnableTiming() {
	for _, it := range e.its {
		it.timed = true
	}
}

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

// release returns an operator's booked bytes to the pool (on re-Open).
func (a *account) release(st *OperatorStats) {
	a.cur -= st.MemBytes
	a.rows -= st.RowsBuffered
	st.MemBytes = 0
	st.RowsBuffered = 0
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
// iterator tree. The result streams distinct rows (set semantics) and
// honours the query's LIMIT/OFFSET.
//
// With opt.Filter set, st is the unpruned store read through the filter:
// the rows are those of a Compile on the materialized pruned store, and
// Next must not run once the relation behind the filter is released.
func Compile(st *storage.Store, q *sparql.Query, opt plan.Options) (*Exec, error) {
	return compilePlan(st, plan.Build(st, q, opt))
}

// compilePlan compiles an optimized plan tree — any tree the node types
// can express, not only the shapes today's planner emits.
func compilePlan(st *storage.Store, pl *plan.Plan) (*Exec, error) {
	c := &compiler{st: st, filter: pl.Filter, acct: &account{}, slab: &slab{}}
	root, props, err := c.compile(pl.Root)
	if err != nil {
		return nil, err
	}
	// Top-level set semantics: only a plan whose rows may repeat (see
	// rowProps) gets an explicit distinct, which then is the real tree
	// root — the plan's operators move one level down.
	if !props.distinct {
		for _, op := range c.ops {
			op.Depth++
		}
		d := &distinctIter{in: root, acct: c.acct}
		root = c.counted("distinct", "", 0, d)
		d.stats = c.lastStats()
	}
	return &Exec{root: root, ops: c.ops, its: c.its, decisions: pl.Decisions, acct: c.acct}, nil
}

// ---------------------------------------------------------------------------
// Compiler.

type compiler struct {
	st     *storage.Store
	filter storage.Filter // nil: the patterns read st's index columns
	ops    []*OperatorStats
	its    []*countedIter
	depth  int // plan-tree depth of the node currently being compiled
	acct   *account
	slab   *slab // the execution's row allocator, shared by every operator
}

// resolve resolves a pattern and, when the execution runs through a
// filter, binds it to the filtered view: the predicate's candidate filter
// (none: pruning kept nothing of it, the pattern is unsatisfiable) and
// the adjacency pair the solve has already built and cached on the store.
func (c *compiler) resolve(tp sparql.TriplePattern) (resolved, error) {
	r, err := resolve(c.st, tp)
	if err != nil || !r.ok || c.filter == nil {
		return r, err
	}
	if r.keep = c.filter[r.pred]; r.keep == nil {
		r.ok = false
		return r, nil
	}
	m := c.st.Matrices(r.pred) // a store caches CSR pairs
	r.fwd, r.bwd = m.F.(*bitmat.CSR), m.B.(*bitmat.CSR)
	return r, nil
}

// lastStats returns the stats slot counted just registered — the hook
// buffering iterators use to attribute their memory charges.
func (c *compiler) lastStats() *OperatorStats { return c.ops[len(c.ops)-1] }

// counted registers an operator's stats slot (tagged with the current
// tree depth) and wraps it with the row-counting shim. Registration
// order is post-order: children before their parent.
func (c *compiler) counted(op, detail string, est float64, it Iterator) Iterator {
	st := &OperatorStats{Op: op, Detail: detail, EstRows: est, Depth: c.depth}
	c.ops = append(c.ops, st)
	ci := &countedIter{in: it, stats: st}
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
		return c.counted("unit", "", 1, &unitIter{slab: c.slab}), scanProps(nil), nil
	case plan.Scan:
		r, err := c.resolve(x.TP)
		if err != nil {
			return nil, rowProps{}, err
		}
		sc := &scanIter{st: c.st, r: r, slab: c.slab}
		it := c.counted("scan", x.TP.String(), x.Est, sc)
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
		return c.counted("filter", x.Cond.String(), 0, newFilterIter(c.st, in, x.Cond)), props, nil
	case plan.Limit:
		in, props, err := c.child(x.Input)
		if err != nil {
			return nil, rowProps{}, err
		}
		// The window counts distinct rows: over a set it just counts,
		// otherwise it keeps a seen-set. Either way its output is a set.
		li := &limitIter{in: in, limit: x.Limit, offset: x.Offset, dedup: !props.distinct, acct: c.acct}
		it := c.counted("limit", limitDetail(x), 0, li)
		li.stats = c.lastStats()
		props.distinct = true
		return it, props, nil
	default:
		return nil, rowProps{}, fmt.Errorf("engine: unknown plan node %T", n)
	}
}

// compileJoin picks the physical join: a pipelined index-nested-loop
// extend when the right side is a scan (optionally with pushed-down
// filters — the streaming fast path: no materialization on either side),
// and a hash join that drains only the right side otherwise.
func (c *compiler) compileJoin(ln, rn plan.Node, leftOuter bool) (Iterator, rowProps, error) {
	// Peel pushed-down filters off a scan right side: for an inner join,
	// filtering the extensions after the merge is equivalent to filtering
	// the scan (the scan binds every variable the condition may name).
	// For a left join the filter must apply before the outer padding, so
	// only a bare scan takes the extend path there.
	rs := rn
	var conds []sparql.Condition
	if !leftOuter {
		for {
			f, ok := rs.(plan.Filter)
			if !ok {
				break
			}
			conds = append(conds, f.Cond)
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
		it := c.counted(op, sc.TP.String(), sc.Est, ext)
		ext.filtered = &c.lastStats().Filtered
		for i := len(conds) - 1; i >= 0; i-- {
			c.depth--
			it = c.counted("filter", conds[i].String(), 0, newFilterIter(c.st, it, conds[i]))
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

func limitDetail(x plan.Limit) string {
	d := ""
	if x.Limit > 0 {
		d = "limit " + strconv.Itoa(x.Limit)
	}
	if x.Offset > 0 {
		if d != "" {
			d += " "
		}
		d += "offset " + strconv.Itoa(x.Offset)
	}
	return d
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

// Drain opens the execution, materializes every row into a Result and
// closes it, polling ctx between row batches. The Exec's operator
// counters remain readable after Drain returns.
func Drain(ctx context.Context, ex *Exec) (*Result, error) {
	if err := ex.Open(ctx); err != nil {
		ex.Close()
		return nil, err
	}
	defer ex.Close()
	out := NewResult(ex.Vars()...)
	n := 0
	for {
		if n%rowCheckInterval == 0 {
			if err := ctxErr(ctx); err != nil {
				return nil, err
			}
		}
		row, ok, err := ex.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out.Rows = append(out.Rows, row)
		n++
	}
}

// ---------------------------------------------------------------------------
// Operators.

// countedIter bumps its operator's row counter on every emitted row and
// polls ctx every rowCheckInterval rows, so cancellation reaches every
// operator boundary of the tree. With timed set (tracing/EXPLAIN
// ANALYZE) it additionally accumulates inclusive wall-clock time.
type countedIter struct {
	in    Iterator
	stats *OperatorStats
	ctx   context.Context
	n     int
	timed bool
}

func (c *countedIter) Open(ctx context.Context) error { c.ctx = ctx; return c.in.Open(ctx) }
func (c *countedIter) Close() error                   { return c.in.Close() }
func (c *countedIter) Vars() []string                 { return c.in.Vars() }

//dualsim:hotpath
func (c *countedIter) Next() ([]storage.NodeID, bool, error) {
	if c.n++; c.n%rowCheckInterval == 0 {
		if err := ctxErr(c.ctx); err != nil {
			return nil, false, err
		}
	}
	c.stats.NextCalls++
	if c.timed {
		t0 := time.Now()
		row, ok, err := c.in.Next()
		c.stats.Time += time.Since(t0)
		if ok {
			c.stats.Rows++
		}
		return row, ok, err
	}
	row, ok, err := c.in.Next()
	if ok {
		c.stats.Rows++
	}
	return row, ok, err
}

// unitIter produces the single empty mapping.
type unitIter struct {
	slab *slab
	done bool
}

func (u *unitIter) Open(ctx context.Context) error { u.done = false; return nil }
func (u *unitIter) Close() error                   { return nil }
func (u *unitIter) Vars() []string                 { return nil }

//dualsim:hotpath
func (u *unitIter) Next() ([]storage.NodeID, bool, error) {
	if u.done {
		return nil, false, nil
	}
	u.done = true
	return u.slab.alloc(0), true, nil
}

// scanIter streams the matches of one resolved triple pattern straight
// from the store — a cursor over the PSO positions the view holds for the
// unbound case (every position, or the kept-triple mask's set bits), a
// posting-list walk (the neighbour row, read in place) when one side is a
// constant. Nothing is materialized.
type scanIter struct {
	st       *storage.Store
	r        resolved
	slab     *slab
	filtered *int64 // the operator's Filtered counter
	ctx      context.Context
	i        int // cursor: pair index or posting-list index
	list     []storage.NodeID
	alive    []*bitvec.Vector // see resolved.postings
	done     bool
	n        int // checked rows since last ctx poll
}

func (s *scanIter) Vars() []string { return s.r.vars() }
func (s *scanIter) Close() error   { return nil }

func (s *scanIter) Open(ctx context.Context) error {
	s.ctx = ctx
	s.i = 0
	s.done = false
	s.list = nil
	if !s.r.ok {
		s.done = true
		return nil
	}
	switch {
	case s.r.sVar == "" && s.r.oVar == "":
	case s.r.sVar == "":
		s.list, s.alive = s.r.postings(s.st, s.r.sID, true, s.alive[:0])
	case s.r.oVar == "":
		s.list, s.alive = s.r.postings(s.st, s.r.oID, false, s.alive[:0])
	}
	return nil
}

//dualsim:hotpath
func (s *scanIter) Next() ([]storage.NodeID, bool, error) {
	if s.done {
		return nil, false, nil
	}
	if s.n++; s.n%rowCheckInterval == 0 {
		if err := ctxErr(s.ctx); err != nil {
			return nil, false, err
		}
	}
	r := &s.r
	switch {
	case r.sVar == "" && r.oVar == "":
		s.done = true
		if r.has(s.st, r.sID, r.oID, s.filtered) {
			return s.slab.alloc(0), true, nil
		}
		return nil, false, nil
	case r.sVar == "" || r.oVar == "":
		for s.i < len(s.list) {
			id := s.list[s.i]
			s.i++
			if !admits(s.alive, id) {
				*s.filtered++
				continue
			}
			row := s.slab.alloc(1)
			row[0] = id
			return row, true, nil
		}
		s.done = true
		return nil, false, nil
	default:
		for i := r.nextPos(s.st, s.i); i >= 0; i = r.nextPos(s.st, s.i) {
			sub, obj := s.st.PairAt(r.pred, i)
			s.i = i + 1
			if r.sVar == r.oVar {
				if sub != obj {
					continue
				}
				row := s.slab.alloc(1)
				row[0] = sub
				return row, true, nil
			}
			row := s.slab.alloc(2)
			row[0], row[1] = sub, obj
			return row, true, nil
		}
		s.done = true
		return nil, false, nil
	}
}

// extendIter is the pipelined index-nested-loop join of an input stream
// with one triple pattern: each input row is extended through the
// cheapest applicable index access path, cursor-style, so rows flow from
// the leftmost scan to the client without materializing any intermediate
// — and without unbounded work per Next call, keeping cancellation
// prompt. With leftOuter it implements OPTIONAL against a scan: input
// rows with no extension survive padded.
type extendIter struct {
	st        *storage.Store
	in        Iterator
	r         resolved
	leftOuter bool
	slab      *slab
	filtered  *int64 // the operator's Filtered counter

	vars   []string
	inVars int // input schema width (a prefix of vars)
	// Output columns of the pattern's subject and object, resolved once:
	// -1 for a constant. sameVar is the ?x p ?x pattern.
	sCol, oCol int
	sameVar    bool

	// Cursor over the extensions of the current input row. cur is the
	// input row widened to the output schema: operator-owned scratch that
	// is never handed out (emitted rows are slab copies), valid while
	// have is set.
	cur        []storage.NodeID
	have       bool
	list       []storage.NodeID // posting list (one side known), read in place
	alive      []*bitvec.Vector // see resolved.postings
	li         int
	pi         int // pair cursor (neither side known)
	sVal, oVal storage.NodeID
	sKnown     bool
	oKnown     bool
	matched    bool

	ctx context.Context
	n   int
}

func newExtendIter(st *storage.Store, in Iterator, r resolved, leftOuter bool, sl *slab) *extendIter {
	e := &extendIter{st: st, in: in, r: r, leftOuter: leftOuter, slab: sl, sCol: -1, oCol: -1}
	e.vars = slices.Clone(in.Vars())
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
	e.cur = make([]storage.NodeID, len(e.vars))
	return e
}

func (e *extendIter) Vars() []string { return e.vars }
func (e *extendIter) Close() error   { return e.in.Close() }

func (e *extendIter) Open(ctx context.Context) error {
	e.ctx = ctx
	e.have = false
	return e.in.Open(ctx)
}

// emit builds an output row: the current input row, with the pattern's
// variables set to (s, o) when ext is true.
//
//dualsim:hotpath
func (e *extendIter) emit(ext bool, s, o storage.NodeID) []storage.NodeID {
	nr := e.slab.alloc(len(e.cur))
	copy(nr, e.cur)
	if ext {
		if e.sCol >= 0 {
			nr[e.sCol] = s
		}
		if e.oCol >= 0 {
			nr[e.oCol] = o
		}
	}
	return nr
}

// known resolves a pattern position against the current input row: the
// constant, or the row's binding of the variable when it has one.
func (e *extendIter) known(col int, constID storage.NodeID) (storage.NodeID, bool) {
	if col < 0 {
		return constID, true
	}
	if v := e.cur[col]; v != Unbound {
		return v, true
	}
	return 0, false
}

//dualsim:hotpath
func (e *extendIter) Next() ([]storage.NodeID, bool, error) {
	r := &e.r
	for {
		if e.n++; e.n%rowCheckInterval == 0 {
			if err := ctxErr(e.ctx); err != nil {
				return nil, false, err
			}
		}
		if e.have {
			switch {
			case e.sKnown && e.oKnown:
				e.have = false
				if r.has(e.st, e.sVal, e.oVal, e.filtered) {
					return e.emit(true, e.sVal, e.oVal), true, nil
				}
				if e.leftOuter {
					return e.emit(false, 0, 0), true, nil
				}
				continue
			case e.sKnown || e.oKnown:
				for e.li < len(e.list) {
					id := e.list[e.li]
					e.li++
					if !admits(e.alive, id) {
						*e.filtered++
						continue
					}
					e.matched = true
					if e.sKnown {
						return e.emit(true, e.sVal, id), true, nil
					}
					return e.emit(true, id, e.oVal), true, nil
				}
			default:
				if i := r.nextPos(e.st, e.pi); i >= 0 {
					s, o := e.st.PairAt(r.pred, i)
					e.pi = i + 1
					if e.sameVar && s != o {
						continue
					}
					e.matched = true
					return e.emit(true, s, o), true, nil
				}
			}
			// Cursor exhausted.
			e.have = false
			if e.leftOuter && !e.matched {
				return e.emit(false, 0, 0), true, nil
			}
			continue
		}

		in, ok, err := e.in.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		// Widen the input row to the output schema.
		copy(e.cur, in)
		for i := e.inVars; i < len(e.cur); i++ {
			e.cur[i] = Unbound
		}
		if !r.ok {
			// Unsatisfiable pattern: no extensions ever.
			if e.leftOuter {
				return e.emit(false, 0, 0), true, nil
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
}

// hashJoinIter is the generic compatibility join: Open drains the right
// side and buckets it on a 64-bit hash of the shared columns (rows with
// an unbound shared variable go to a wildcard list), then the left side
// streams through, probing. A bucket is a chain through an index array,
// and every candidate is verified by compatible, so neither a hash
// collision nor two hashes sharing a bucket can produce a wrong match.
// With leftOuter, unmatched left rows survive padded.
type hashJoinIter struct {
	l, r      Iterator
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
	// the left row itself has an unbound shared variable.
	lrow    []storage.NodeID
	haveL   bool
	chain   int32 // next chain candidate + 1
	wi      int   // wildcard cursor
	scanAll bool
	ci      int // scanAll cursor
	matched bool
	n       int
	ctx     context.Context

	// resource accounting: the drained right side is the build-side
	// buffer this operator charges against the execution's budget.
	acct  *account
	stats *OperatorStats
}

func newHashJoinIter(l, r Iterator, leftOuter bool, sl *slab) *hashJoinIter {
	h := &hashJoinIter{l: l, r: r, leftOuter: leftOuter, slab: sl}
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

func (h *hashJoinIter) Close() error {
	err := h.l.Close()
	if err2 := h.r.Close(); err == nil {
		err = err2
	}
	return err
}

func (h *hashJoinIter) Open(ctx context.Context) error {
	h.ctx = ctx
	h.haveL = false
	h.rows = h.rows[:0]
	h.wildcards = h.wildcards[:0]
	h.acct.release(h.stats)
	if err := h.l.Open(ctx); err != nil {
		return err
	}
	if err := h.r.Open(ctx); err != nil {
		return err
	}
	for {
		row, ok, err := h.r.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		i := len(h.rows)
		h.rows = append(h.rows, row)
		if err := h.acct.charge(h.stats, 1, rowCostBytes(row)); err != nil {
			return err
		}
		if i%rowCheckInterval == 0 {
			if err := ctxErr(ctx); err != nil {
				return err
			}
		}
	}
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
func (h *hashJoinIter) Next() ([]storage.NodeID, bool, error) {
	for {
		for h.haveL {
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
				// Candidates exhausted.
				h.haveL = false
				if h.leftOuter && !h.matched {
					return h.merge(h.lrow, nil), true, nil
				}
				continue
			}
			if h.compatible(h.lrow, h.rows[ri]) {
				h.matched = true
				return h.merge(h.lrow, h.rows[ri]), true, nil
			}
		}
		lrow, ok, err := h.l.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		if h.n++; h.n%rowCheckInterval == 0 {
			if err := ctxErr(h.ctx); err != nil {
				return nil, false, err
			}
		}
		h.lrow, h.haveL = lrow, true
		h.ci, h.wi, h.chain = 0, 0, 0
		h.matched = false
		h.scanAll = !allBound(lrow, h.lIdx)
		if !h.scanAll {
			h.chain = h.heads[hashCols(lrow, h.lIdx)&uint64(len(h.heads)-1)]
		}
	}
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
func (f *filterIter) Next() ([]storage.NodeID, bool, error) {
	for {
		row, ok, err := f.in.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		if v, e := evalCond(f.st, f.cond, f.cols, row); v && !e {
			return row, true, nil
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

//dualsim:hotpath
func (u *unionIter) project(row []storage.NodeID, m []int) []storage.NodeID {
	out := u.slab.alloc(len(u.vars))
	for k := range out {
		out[k] = Unbound
	}
	for i, oj := range m {
		out[oj] = row[i]
	}
	return out
}

//dualsim:hotpath
func (u *unionIter) Next() ([]storage.NodeID, bool, error) {
	if !u.onRight {
		row, ok, err := u.l.Next()
		if err != nil {
			return nil, false, err
		}
		if ok {
			return u.project(row, u.lMap), true, nil
		}
		u.onRight = true
	}
	row, ok, err := u.r.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	return u.project(row, u.rMap), true, nil
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
func (d *distinctIter) Close() error   { return d.in.Close() }

func (d *distinctIter) Open(ctx context.Context) error {
	d.seen = newRowSet()
	d.acct.release(d.stats)
	return d.in.Open(ctx)
}

//dualsim:hotpath
func (d *distinctIter) Next() ([]storage.NodeID, bool, error) {
	for {
		row, ok, err := d.in.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		if !d.seen.add(row) {
			continue
		}
		if err := d.acct.charge(d.stats, 1, rowCostBytes(row)); err != nil {
			return nil, false, err
		}
		return row, true, nil
	}
}

// limitIter emits the first limit distinct rows after skipping offset
// distinct rows, then stops pulling from its input — the early-exit that
// makes LIMIT queries cheap under streaming execution. Counting distinct
// rows (rather than raw ones) keeps per-branch LIMIT pushdown sound
// under set semantics; with dedup false the input is known to be a set
// and the window just counts, buffering nothing.
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
func (l *limitIter) Close() error   { return l.in.Close() }

func (l *limitIter) Open(ctx context.Context) error {
	if l.dedup {
		l.seen = newRowSet()
	}
	l.skipped = 0
	l.emitted = 0
	l.acct.release(l.stats)
	return l.in.Open(ctx)
}

//dualsim:hotpath
func (l *limitIter) Next() ([]storage.NodeID, bool, error) {
	if l.limit > 0 && l.emitted >= l.limit {
		return nil, false, nil
	}
	for {
		row, ok, err := l.in.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		if l.dedup {
			if !l.seen.add(row) {
				continue
			}
			if err := l.acct.charge(l.stats, 1, rowCostBytes(row)); err != nil {
				return nil, false, err
			}
		}
		if l.skipped < l.offset {
			l.skipped++
			continue
		}
		l.emitted++
		return row, true, nil
	}
}
