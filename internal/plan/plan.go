// Package plan lowers parsed SPARQL queries to a logical operator tree
// and optimizes it against the store's per-predicate index statistics:
// basic graph patterns are reordered greedily sparsest-first (the same
// cost model as the SOI solver's ordering heuristic), filters are pushed
// below joins and unions where that is sound, and LIMIT is pushed into
// UNION branches. The tree is the input of the engine's Volcano-style
// iterator executor; every optimization decision is recorded so the
// serving layer can surface it in ExecStats.
package plan

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"dualsim/internal/sparql"
	"dualsim/internal/storage"
)

// Node is one logical operator of the plan tree.
type Node interface{ isNode() }

// Unit produces the single empty mapping µ∅ (the empty BGP).
type Unit struct{}

// Scan streams the matches of one triple pattern from the store indexes.
// Est is the cardinality estimate at the scan's position in the plan,
// given the variables bound upstream.
type Scan struct {
	TP     sparql.TriplePattern
	Est    float64
	Detail string // TP rendered for EXPLAIN and the operator counters
}

// Join is the compatibility join (AND).
type Join struct{ L, R Node }

// LeftJoin is the left outer join (OPTIONAL).
type LeftJoin struct{ L, R Node }

// Union is the set union.
type Union struct{ L, R Node }

// Filter keeps the rows whose condition evaluates to true.
type Filter struct {
	Input  Node
	Cond   sparql.Condition
	Detail string // Cond rendered
}

// Limit truncates to the first Limit distinct rows after skipping Offset
// distinct rows; Limit 0 means unlimited.
type Limit struct {
	Input  Node
	Limit  int
	Offset int
	Detail string // "limit n offset m", the zero parts left out
}

func (Unit) isNode()     {}
func (Scan) isNode()     {}
func (Join) isNode()     {}
func (LeftJoin) isNode() {}
func (Union) isNode()    {}
func (Filter) isNode()   {}
func (Limit) isNode()    {}

// Plan is an optimized operator tree plus the decision log explaining how
// it differs from the written query. A plan is immutable once built, so
// one plan serves any number of executions, concurrently: the builder
// renders each node's Detail once, not the executor per execution.
type Plan struct {
	Root      Node
	Decisions []string
	// Filter is the view of the store the plan was costed against
	// (Options.Filter) and must execute through; nil for the bare store.
	Filter storage.Filter
}

// Options carry what the optimizer plans against beyond the store.
type Options struct {
	// Filter is the solved dual simulation the plan will execute through
	// (prune.Pruning.Filter), when there is one. The planner then costs
	// that view — each predicate's kept count and candidate-set sizes —
	// and the executor reads the store through it.
	Filter storage.Filter
}

// Build lowers q to an optimized plan tree over st.
func Build(st *storage.Store, q *sparql.Query, opt Options) *Plan {
	p := &Plan{Filter: opt.Filter}
	b := &builder{st: st, opt: opt, plan: p}
	root := b.lower(q.Expr)
	if q.Limit > 0 || q.Offset > 0 {
		root = b.lowerLimit(root, q.Limit, q.Offset)
	}
	p.Root = root
	return p
}

type builder struct {
	st   *storage.Store
	opt  Options
	plan *Plan
}

func (b *builder) note(format string, args ...any) {
	b.plan.Decisions = append(b.plan.Decisions, fmt.Sprintf(format, args...))
}

func (b *builder) lower(e sparql.Expr) Node {
	switch x := e.(type) {
	case sparql.BGP:
		return b.lowerBGP(x)
	case sparql.And:
		return Join{L: b.lower(x.L), R: b.lower(x.R)}
	case sparql.Optional:
		return LeftJoin{L: b.lower(x.L), R: b.lower(x.R)}
	case sparql.Union:
		return Union{L: b.lower(x.L), R: b.lower(x.R)}
	case sparql.Filter:
		return b.lowerFilter(b.lower(x.Inner), x.Cond)
	default:
		// Unknown expression kinds cannot be lowered; the executor reports
		// the error when it meets the empty plan.
		return Unit{}
	}
}

// lowerBGP orders the triple patterns of a BGP greedily: repeatedly pick
// the cheapest pattern given the variables bound so far, preferring
// connected patterns (sharing a bound variable) over Cartesian ones —
// the cost model of the index-nested-loop engine and the SOI solver.
func (b *builder) lowerBGP(bgp sparql.BGP) Node {
	if len(bgp) == 0 {
		return Unit{}
	}
	order := make([]int, 0, len(bgp))
	bound := make(map[string]bool)
	used := make([]bool, len(bgp))
	for len(order) < len(bgp) {
		best, bestCost, bestConnected := -1, 0.0, false
		for i, tp := range bgp {
			if used[i] {
				continue
			}
			connected := len(bound) == 0 || sharesBound(tp, bound)
			cost := b.estimateTP(tp, bound)
			if best < 0 || (connected && !bestConnected) ||
				(connected == bestConnected && cost < bestCost) {
				best, bestCost, bestConnected = i, cost, connected
			}
		}
		order = append(order, best)
		used[best] = true
		for _, v := range tpVars(bgp[best]) {
			bound[v] = true
		}
	}

	// Left-deep scan chain in the chosen order, with position estimates.
	bound = make(map[string]bool)
	var root Node
	reordered := false
	for pos, i := range order {
		if i != pos {
			reordered = true
		}
		sc := Scan{TP: bgp[i], Est: b.estimateTP(bgp[i], bound), Detail: bgp[i].String()}
		if root == nil {
			root = sc
		} else {
			root = Join{L: root, R: sc}
		}
		for _, v := range tpVars(bgp[i]) {
			bound[v] = true
		}
	}
	if reordered {
		b.note("bgp: reordered %d patterns sparsest-first: %v", len(bgp), order)
	}
	return root
}

// lowerFilter pushes each top-level conjunct of cond as far down the tree
// as is sound, leaving the rest in place.
func (b *builder) lowerFilter(n Node, cond sparql.Condition) Node {
	for _, c := range sparql.Conjuncts(cond) {
		n = b.pushFilter(n, c)
	}
	return n
}

// pushFilter sinks one conjunct below joins and unions. Pushing into a
// join side is sound when the condition's variables all belong to that
// side AND every one of them that the other side could also bind is
// certainly bound on this side (otherwise the join could fill in an
// unbound variable and flip the condition). Pushing into a left join's
// right side is never attempted, and pushing into both union branches is
// always sound because an absent variable behaves exactly like an
// unbound one.
func (b *builder) pushFilter(n Node, c sparql.Condition) Node {
	cv := make(map[string]bool)
	sparql.CondVars(c, cv)
	detail := c.String()
	var rec func(n Node) (Node, bool)
	rec = func(n Node) (Node, bool) {
		switch x := n.(type) {
		case Join:
			if canPushSide(cv, x.L, x.R) {
				l, _ := rec(x.L)
				return Join{L: l, R: x.R}, true
			}
			if canPushSide(cv, x.R, x.L) {
				r, _ := rec(x.R)
				return Join{L: x.L, R: r}, true
			}
		case LeftJoin:
			if canPushSide(cv, x.L, x.R) {
				l, _ := rec(x.L)
				return LeftJoin{L: l, R: x.R}, true
			}
		case Union:
			l, _ := rec(x.L)
			r, _ := rec(x.R)
			return Union{L: l, R: r}, true
		case Filter:
			in, pushed := rec(x.Input)
			if pushed {
				return Filter{Input: in, Cond: x.Cond, Detail: x.Detail}, true
			}
		}
		return Filter{Input: n, Cond: c, Detail: detail}, false
	}
	out, pushed := rec(n)
	if pushed {
		b.note("filter: pushed %s below join/union", detail)
	}
	return out
}

// canPushSide reports whether a condition over vars cv may be evaluated
// on the `into` side of a join whose other side is `other`.
func canPushSide(cv map[string]bool, into, other Node) bool {
	iv := varSet(into)
	for v := range cv {
		if !iv[v] {
			return false
		}
	}
	ov := varSet(other)
	cert := certSet(into)
	for v := range cv {
		if ov[v] && !cert[v] {
			return false
		}
	}
	return true
}

// lowerLimit wraps the root in a Limit and, when the root is a union,
// bounds each branch at limit+offset distinct rows: the merged distinct
// rows then still contain at least min(limit+offset, |full|) rows, so the
// outer Limit produces a correct answer while each branch stops early.
func (b *builder) lowerLimit(root Node, limit, offset int) Node {
	if limit > 0 {
		if u, ok := root.(Union); ok {
			k := limit + offset
			root = pushLimitBranches(u, k)
			b.note("limit: pushed LIMIT %d into union branches", k)
		}
	}
	return newLimit(root, limit, offset)
}

func pushLimitBranches(n Node, k int) Node {
	if u, ok := n.(Union); ok {
		return Union{L: pushLimitBranches(u.L, k), R: pushLimitBranches(u.R, k)}
	}
	return newLimit(n, k, 0)
}

func newLimit(in Node, limit, offset int) Limit {
	var parts []string
	if limit > 0 {
		parts = append(parts, "limit "+strconv.Itoa(limit))
	}
	if offset > 0 {
		parts = append(parts, "offset "+strconv.Itoa(offset))
	}
	return Limit{Input: in, Limit: limit, Offset: offset, Detail: strings.Join(parts, " ")}
}

// ---------------------------------------------------------------------------
// Statistics and variable analyses.

// estimateTP is the expected cardinality of a triple pattern given the
// variables bound upstream — the same statistics the engines' resolved
// patterns use (PredCount, DistinctSubjects, DistinctObjects), or their
// counterparts in the filtered view when the plan executes through one.
func (b *builder) estimateTP(tp sparql.TriplePattern, bound map[string]bool) float64 {
	st := b.st
	if tp.P.IsVar() {
		// Variable predicates are rejected by every engine; rank them last.
		return float64(st.NumTriples())
	}
	pid, ok := st.PredIDOf(tp.P.Const.Value)
	if !ok {
		return 0
	}
	if tp.S.Const != nil {
		if _, ok := st.TermID(*tp.S.Const); !ok {
			return 0
		}
	}
	if tp.O.Const != nil {
		if _, ok := st.TermID(*tp.O.Const); !ok {
			return 0
		}
	}
	count, distS, distO := st.PredCount(pid), st.DistinctSubjects(pid), st.DistinctObjects(pid)
	if b.opt.Filter != nil {
		count, distS, distO = 0, 0, 0
		if pf := b.opt.Filter[pid]; pf != nil {
			count, distS, distO = pf.Kept, pf.DistS, pf.DistO
		}
	}
	n := float64(count)
	if n == 0 {
		return 0
	}
	sBound := !tp.S.IsVar() || bound[tp.S.Var]
	oBound := !tp.O.IsVar() || bound[tp.O.Var]
	switch {
	case sBound && oBound:
		return 1
	case sBound:
		return n / math.Max(1, float64(distS))
	case oBound:
		return n / math.Max(1, float64(distO))
	default:
		return n
	}
}

func tpVars(tp sparql.TriplePattern) []string {
	var out []string
	for _, t := range []sparql.Term{tp.S, tp.P, tp.O} {
		if t.IsVar() {
			out = append(out, t.Var)
		}
	}
	return out
}

func sharesBound(tp sparql.TriplePattern, bound map[string]bool) bool {
	for _, v := range tpVars(tp) {
		if bound[v] {
			return true
		}
	}
	return false
}

// varSet returns every variable a node's rows may bind.
func varSet(n Node) map[string]bool {
	out := make(map[string]bool)
	var rec func(Node)
	rec = func(n Node) {
		switch x := n.(type) {
		case Scan:
			for _, v := range tpVars(x.TP) {
				out[v] = true
			}
		case Join:
			rec(x.L)
			rec(x.R)
		case LeftJoin:
			rec(x.L)
			rec(x.R)
		case Union:
			rec(x.L)
			rec(x.R)
		case Filter:
			rec(x.Input)
		case Limit:
			rec(x.Input)
		}
	}
	rec(n)
	return out
}

// certSet returns the variables certainly bound in every row of a node:
// scans bind all their variables, left joins only guarantee their left
// side, unions only what both branches guarantee.
func certSet(n Node) map[string]bool {
	switch x := n.(type) {
	case Scan:
		out := make(map[string]bool)
		for _, v := range tpVars(x.TP) {
			out[v] = true
		}
		return out
	case Join:
		out := certSet(x.L)
		for v := range certSet(x.R) {
			out[v] = true
		}
		return out
	case LeftJoin:
		return certSet(x.L)
	case Union:
		l, r := certSet(x.L), certSet(x.R)
		out := make(map[string]bool)
		for v := range l {
			if r[v] {
				out[v] = true
			}
		}
		return out
	case Filter:
		return certSet(x.Input)
	case Limit:
		return certSet(x.Input)
	}
	return make(map[string]bool)
}
