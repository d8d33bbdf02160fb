// Oracles: the two materializing evaluators kept beside the Volcano
// executor as reference implementations, and the materializing operator
// algebra (evalExpr, join, union, applyFilter, applyLimit) only they use.
// Nothing in this file serves traffic. IndexNL is the answer oracle of
// the repository benchmark and of the differential tests on stores too
// large for Reference, and the Virtuoso stand-in of the paper's Table 5;
// Reference is the executable denotational semantics the parity tests
// compare against on tiny stores. Neither shares a join loop with the
// iterators in volcano.go — that independence is what makes a
// disagreement with the executor a finding, so executor changes must not
// reach into this file.

package engine

import (
	"context"
	"fmt"
	"math"
	"slices"

	"dualsim/internal/sparql"
	"dualsim/internal/storage"
)

// evalExpr evaluates a graph pattern expression with the given BGP
// evaluator plugged in; the operator algebra (AND = ⋈, OPTIONAL = left
// outer join, UNION = ∪) is shared by both oracles, as is the ctx
// cancellation discipline: every operator node checks ctx, and the join
// loops check it every rowCheckInterval rows.
func evalExpr(ctx context.Context, st *storage.Store, e sparql.Expr, bgp func(context.Context, *storage.Store, sparql.BGP) (*Result, error)) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	switch x := e.(type) {
	case sparql.BGP:
		return bgp(ctx, st, x)
	case sparql.And:
		l, err := evalExpr(ctx, st, x.L, bgp)
		if err != nil {
			return nil, err
		}
		r, err := evalExpr(ctx, st, x.R, bgp)
		if err != nil {
			return nil, err
		}
		return join(ctx, l, r, false)
	case sparql.Optional:
		l, err := evalExpr(ctx, st, x.L, bgp)
		if err != nil {
			return nil, err
		}
		r, err := evalExpr(ctx, st, x.R, bgp)
		if err != nil {
			return nil, err
		}
		return join(ctx, l, r, true)
	case sparql.Union:
		l, err := evalExpr(ctx, st, x.L, bgp)
		if err != nil {
			return nil, err
		}
		r, err := evalExpr(ctx, st, x.R, bgp)
		if err != nil {
			return nil, err
		}
		return union(l, r), nil
	case sparql.Filter:
		inner, err := evalExpr(ctx, st, x.Inner, bgp)
		if err != nil {
			return nil, err
		}
		return applyFilter(st, x.Cond, inner), nil
	default:
		return nil, fmt.Errorf("engine: unknown expression %T", e)
	}
}

// join computes the compatibility join l ⋈ r; with leftOuter it computes
// the left outer join (OPTIONAL): rows of l without any compatible partner
// survive unextended.
func join(ctx context.Context, l, r *Result, leftOuter bool) (*Result, error) {
	shared := sharedVars(l, r)
	outVars := unionVars(l, r)
	out := NewResult(outVars...)

	lIdx := varIndexes(l, shared)
	rIdx := varIndexes(r, shared)

	// Hash r rows whose shared variables are all bound; rows with unbound
	// shared variables are compatibility wildcards and go to a scan list.
	buckets := make(map[string][]int, len(r.Rows))
	var wildcards []int
	for i, row := range r.Rows {
		if allBound(row, rIdx) {
			buckets[keyOf(row, rIdx)] = append(buckets[keyOf(row, rIdx)], i)
		} else {
			wildcards = append(wildcards, i)
		}
	}

	emit := func(lrow, rrow []storage.NodeID) {
		merged := make([]storage.NodeID, len(outVars))
		for k := range merged {
			merged[k] = Unbound
		}
		for j, v := range lrow {
			merged[j] = v // l's vars are a prefix of outVars
		}
		for j, v := range rrow {
			if v == Unbound {
				continue
			}
			oj := slices.Index(outVars, r.Vars[j])
			merged[oj] = v
		}
		out.Rows = append(out.Rows, merged)
	}

	for li, lrow := range l.Rows {
		if li%rowCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		matched := false
		if allBound(lrow, lIdx) {
			for _, ri := range buckets[keyOf(lrow, lIdx)] {
				if compatible(l, r, lrow, r.Rows[ri], shared) {
					emit(lrow, r.Rows[ri])
					matched = true
				}
			}
			for _, ri := range wildcards {
				if compatible(l, r, lrow, r.Rows[ri], shared) {
					emit(lrow, r.Rows[ri])
					matched = true
				}
			}
		} else {
			// l row itself has unbound shared vars: scan everything.
			for ri := range r.Rows {
				if compatible(l, r, lrow, r.Rows[ri], shared) {
					emit(lrow, r.Rows[ri])
					matched = true
				}
			}
		}
		if leftOuter && !matched {
			merged := make([]storage.NodeID, len(outVars))
			for k := range merged {
				merged[k] = Unbound
			}
			copy(merged, lrow)
			out.Rows = append(out.Rows, merged)
		}
	}
	out.Dedup()
	return out, nil
}

// union computes the set union, padding each side to the union schema.
func union(l, r *Result) *Result {
	outVars := unionVars(l, r)
	out := l.Project(outVars)
	rp := r.Project(outVars)
	out.Rows = append(out.Rows, rp.Rows...)
	out.Dedup()
	return out
}

// applyFilter keeps the rows whose condition evaluates to true.
func applyFilter(st *storage.Store, cond sparql.Condition, res *Result) *Result {
	cols := make(map[string]int, len(res.Vars))
	for i, v := range res.Vars {
		cols[v] = i
	}
	out := NewResult(res.Vars...)
	for _, row := range res.Rows {
		if v, e := evalCond(st, cond, cols, row); v && !e {
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}

// applyLimit applies the query's LIMIT/OFFSET solution modifier to a
// materialized result. Set semantics have no inherent order, so rows are
// deduplicated and canonically sorted first — every engine then truncates
// to the same row set, keeping the engines comparable and the output
// deterministic.
func applyLimit(res *Result, q *sparql.Query) *Result {
	if q.Limit == 0 && q.Offset == 0 {
		return res
	}
	res.Dedup()
	res.Sort()
	lo := q.Offset
	if lo > len(res.Rows) {
		lo = len(res.Rows)
	}
	hi := len(res.Rows)
	if q.Limit > 0 && lo+q.Limit < hi {
		hi = lo + q.Limit
	}
	res.Rows = res.Rows[lo:hi]
	return res
}

// estimate returns the expected cardinality of the pattern given which of
// its variables are already bound — the statistics-driven cost model used
// for join ordering (cf. the paper's §5.3 remark on join order
// optimization).
func (r resolved) estimate(st *storage.Store, bound map[string]bool) float64 {
	if !r.ok {
		return 0
	}
	n := float64(st.PredCount(r.pred))
	if n == 0 {
		return 0
	}
	sBound := r.sVar == "" || bound[r.sVar]
	oBound := r.oVar == "" || bound[r.oVar]
	switch {
	case sBound && oBound:
		return 1
	case sBound:
		return n / math.Max(1, float64(st.DistinctSubjects(r.pred)))
	case oBound:
		return n / math.Max(1, float64(st.DistinctObjects(r.pred)))
	default:
		return n
	}
}

// ---------------------------------------------------------------------------
// IndexNL: greedy cost-based ordering + index nested-loop extension.

type indexNLEngine struct{}

// NewIndexNL returns the index nested-loop engine with greedy join
// reordering (the Virtuoso stand-in of Table 5).
func NewIndexNL() Engine { return indexNLEngine{} }

func (indexNLEngine) Name() string { return "indexnl" }

func (indexNLEngine) Evaluate(ctx context.Context, st *storage.Store, q *sparql.Query) (*Result, error) {
	res, err := evalExpr(ctx, st, q.Expr, indexNLBGP)
	if err != nil {
		return nil, err
	}
	return applyLimit(res, q), nil
}

func indexNLBGP(ctx context.Context, st *storage.Store, b sparql.BGP) (*Result, error) {
	if len(b) == 0 {
		return unitResult(), nil
	}
	rs := make([]resolved, len(b))
	for i, tp := range b {
		r, err := resolve(st, tp)
		if err != nil {
			return nil, err
		}
		rs[i] = r
	}

	// Greedy ordering: repeatedly pick the cheapest pattern given the
	// variables bound so far, preferring connected patterns (those that
	// share a bound variable) over Cartesian ones.
	order := make([]resolved, 0, len(rs))
	used := make([]bool, len(rs))
	bound := make(map[string]bool)
	for len(order) < len(rs) {
		best, bestCost, bestConnected := -1, 0.0, false
		for i, r := range rs {
			if used[i] {
				continue
			}
			connected := len(bound) == 0 || sharesBound(r, bound)
			cost := r.estimate(st, bound)
			if best < 0 || (connected && !bestConnected) ||
				(connected == bestConnected && cost < bestCost) {
				best, bestCost, bestConnected = i, cost, connected
			}
		}
		used[best] = true
		order = append(order, rs[best])
		for _, v := range rs[best].vars() {
			bound[v] = true
		}
	}

	// Index nested loop over the chosen order.
	varOrder := make([]string, 0, len(bound))
	varCol := make(map[string]int)
	for _, r := range order {
		for _, v := range r.vars() {
			if _, ok := varCol[v]; !ok {
				varCol[v] = len(varOrder)
				varOrder = append(varOrder, v)
			}
		}
	}
	out := NewResult(varOrder...)
	current := [][]storage.NodeID{make([]storage.NodeID, len(varOrder))}
	for i := range current[0] {
		current[0][i] = Unbound
	}
	for _, r := range order {
		if !r.ok {
			return out, nil
		}
		var next [][]storage.NodeID
		for i, row := range current {
			if i%rowCheckInterval == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			extendRow(st, r, row, varCol, func(nr []storage.NodeID) {
				next = append(next, nr)
			})
		}
		current = next
		if len(current) == 0 {
			break
		}
	}
	out.Rows = current
	out.Dedup()
	return out, nil
}

func sharesBound(r resolved, bound map[string]bool) bool {
	for _, v := range r.vars() {
		if bound[v] {
			return true
		}
	}
	return false
}

// extendRow enumerates the extensions of a partial row by pattern r using
// the cheapest applicable index access path.
func extendRow(st *storage.Store, r resolved, row []storage.NodeID, varCol map[string]int, emit func([]storage.NodeID)) {
	sVal, sKnown := constOrBinding(r.sVar, r.sID, row, varCol)
	oVal, oKnown := constOrBinding(r.oVar, r.oID, row, varCol)

	push := func(s, o storage.NodeID) {
		nr := append([]storage.NodeID(nil), row...)
		if r.sVar != "" {
			nr[varCol[r.sVar]] = s
		}
		if r.oVar != "" {
			nr[varCol[r.oVar]] = o
		}
		emit(nr)
	}

	switch {
	case sKnown && oKnown:
		if st.HasTriple(sVal, r.pred, oVal) {
			push(sVal, oVal)
		}
	case sKnown:
		for _, o := range st.Objects(r.pred, sVal) {
			if r.sVar == r.oVar && o != sVal {
				continue
			}
			push(sVal, o)
		}
	case oKnown:
		for _, s := range st.Subjects(r.pred, oVal) {
			if r.sVar == r.oVar && s != oVal {
				continue
			}
			push(s, oVal)
		}
	default:
		st.ForEachPair(r.pred, func(s, o storage.NodeID) bool {
			if r.sVar == r.oVar && s != o {
				return true
			}
			push(s, o)
			return true
		})
	}
}

// ---------------------------------------------------------------------------
// Reference: executable denotational semantics, for tiny inputs only.

type referenceEngine struct{}

// NewReference returns the specification engine: a direct transcription of
// the Pérez et al. set semantics by brute-force enumeration. Exponential;
// use only on small stores (tests, examples).
func NewReference() Engine { return referenceEngine{} }

func (referenceEngine) Name() string { return "reference" }

func (referenceEngine) Evaluate(ctx context.Context, st *storage.Store, q *sparql.Query) (*Result, error) {
	res, err := evalExpr(ctx, st, q.Expr, referenceBGP)
	if err != nil {
		return nil, err
	}
	return applyLimit(res, q), nil
}

func referenceBGP(ctx context.Context, st *storage.Store, b sparql.BGP) (*Result, error) {
	if len(b) == 0 {
		return unitResult(), nil
	}
	rs := make([]resolved, len(b))
	for i, tp := range b {
		r, err := resolve(st, tp)
		if err != nil {
			return nil, err
		}
		rs[i] = r
	}
	var vars []string
	seen := make(map[string]bool)
	for _, r := range rs {
		for _, v := range r.vars() {
			if !seen[v] {
				seen[v] = true
				vars = append(vars, v)
			}
		}
	}
	out := NewResult(vars...)
	col := make(map[string]int, len(vars))
	for i, v := range vars {
		col[v] = i
	}

	// Enumerate every total assignment vars → O_DB and keep those whose
	// image satisfies all triple patterns — dom(µ) = vars(BGP).
	assign := make([]storage.NodeID, len(vars))
	checked := 0
	var rec func(i int) error
	rec = func(i int) error {
		if i == len(vars) {
			if checked++; checked%rowCheckInterval == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			for _, r := range rs {
				if !r.ok {
					return nil
				}
				s, _ := constOrBinding(r.sVar, r.sID, assign, col)
				o, _ := constOrBinding(r.oVar, r.oID, assign, col)
				if !st.HasTriple(s, r.pred, o) {
					return nil
				}
			}
			out.Rows = append(out.Rows, append([]storage.NodeID(nil), assign...))
			return nil
		}
		for n := 0; n < st.NumNodes(); n++ {
			assign[i] = storage.NodeID(n)
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0); err != nil {
		return nil, err
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Oracle behind the executor's cursor type.

// AsExec presents a materializing evaluator as an *Exec, so a caller that
// holds the executor's cursor needs no second code path to consult an
// oracle: Open runs the evaluation, Next replays its rows. Such an Exec
// has no operators and no planner decisions, and buffers nothing the
// accounting would meter.
func AsExec(eng Engine, st *storage.Store, q *sparql.Query) *Exec {
	return &Exec{root: &materializedIter{eng: eng, st: st, q: q}, acct: &account{}}
}

type materializedIter struct {
	eng Engine
	st  *storage.Store
	q   *sparql.Query
	res *Result // nil until Open succeeded
	i   int
}

func (m *materializedIter) Open(ctx context.Context) error {
	res, err := m.eng.Evaluate(ctx, m.st, m.q)
	m.res, m.i = res, 0
	return err
}

func (m *materializedIter) Next() ([]storage.NodeID, bool, error) {
	if m.res == nil || m.i >= len(m.res.Rows) {
		return nil, false, nil
	}
	m.i++
	return m.res.Rows[m.i-1], true, nil
}

func (m *materializedIter) Close() error { return nil }

func (m *materializedIter) Vars() []string {
	if m.res == nil {
		return nil
	}
	return m.res.Vars
}

// ---------------------------------------------------------------------------
// Row helpers of the oracles' materializing join — string-keyed and
// name-resolved on purpose: they share nothing with the executor's hashed,
// column-mapped operators they are the check for.

func keyOf(row []storage.NodeID, idx []int) string {
	key := make([]storage.NodeID, len(idx))
	for i, j := range idx {
		key[i] = row[j]
	}
	return rowKey(key)
}

// compatible implements µ1 ⇋ µ2: agreement on every shared variable bound
// in both mappings.
func compatible(l, r *Result, lrow, rrow []storage.NodeID, shared []string) bool {
	for _, v := range shared {
		lv := lrow[l.VarIndex(v)]
		rv := rrow[r.VarIndex(v)]
		if lv != Unbound && rv != Unbound && lv != rv {
			return false
		}
	}
	return true
}

// constOrBinding resolves a pattern position to a node id: the constant,
// or the row's binding of the variable when it has one.
func constOrBinding(v string, constID storage.NodeID, row []storage.NodeID, varCol map[string]int) (storage.NodeID, bool) {
	if v == "" {
		return constID, true
	}
	if val := row[varCol[v]]; val != Unbound {
		return val, true
	}
	return 0, false
}
