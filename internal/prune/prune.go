// Package prune implements the paper's headline application (Sect. 5):
// per-query database pruning by dual simulation. The largest solution of
// the query's system of inequalities marks, per pattern edge (v, a, w),
// the a-triples whose endpoints lie in χS(v) × χS(w); every other triple
// is disqualified for the query and removed before handing the database to
// a query engine.
//
// Soundness (Theorem 2): every variable binding of every SPARQL match is
// contained in the largest solution, so no match's triples are pruned.
// For well-designed patterns, evaluating the query on the pruned store
// therefore produces the identical result set (property-tested). For
// non-well-designed nested optionals the optional *extensions* of result
// mappings may differ on the pruned store — pruning may remove
// cross-product filter structure that blocked an optional join — while
// the mandatory cores of all mappings are preserved (also
// property-tested; see TestNonWellDesignedPromotionNuance).
package prune

import (
	"context"
	"slices"

	"dualsim/internal/bitvec"
	"dualsim/internal/core"
	"dualsim/internal/engine"
	"dualsim/internal/sparql"
	"dualsim/internal/storage"
	"dualsim/internal/trace"
)

// Pruning is the outcome of dual-simulation pruning for one query.
type Pruning struct {
	// Masks marks the kept triples per predicate by PSO position.
	Masks []*bitvec.Vector
	// Kept is the number of triples after pruning.
	Kept int
	// Total is the store size before pruning.
	Total int
	// Visited is the number of triples the mask walk tested — against
	// Total, how far the walk stayed from a scan of the store.
	Visited int

	store  *storage.Store
	filter storage.Filter
}

// Ratio returns the pruned fraction (1 = everything removed), the
// quantity behind the paper's ">95% of triples disqualified".
func (p *Pruning) Ratio() float64 {
	if p.Total == 0 {
		return 0
	}
	return 1 - float64(p.Kept)/float64(p.Total)
}

// Store materializes the pruned database (shared dictionaries, so node
// ids remain comparable with the original).
func (p *Pruning) Store() *storage.Store {
	return p.store.RestrictByMask(p.Masks)
}

// Filter returns the pruning as a view of the unpruned store: per
// predicate the candidate-set pairs that define its mask, the mask and the
// kept cardinalities. It selects exactly the triples Store materializes,
// without copying them. The pairs alias the relation's χ rows, so the
// filter is valid only until the relation is released.
func (p *Pruning) Filter() storage.Filter { return p.filter }

// subjectCheckInterval is the number of candidate subjects the mask walk
// visits between two context-cancellation checks.
const subjectCheckInterval = 1 << 16

// Prune computes the kept-triple masks from a solved query relation.
func Prune(st *storage.Store, rel *core.QueryRelation) *Pruning {
	p, _ := PruneCtx(context.Background(), st, rel)
	return p
}

// PruneCtx is Prune honouring cancellation: ctx is checked per pattern
// edge and every subjectCheckInterval candidate subjects, and an expired
// one returns (nil, ctx.Err()).
//
// For a pattern edge (v, a, w) the walk is driven by χS(v): one forward
// pass over the a-triples' sorted subject column that gallops from run to
// run of the candidate subjects and tests only their objects against
// χS(w). It costs O(|χS(v)|·log gap + Σ deg) — what the candidates cost —
// and degrades to a linear scan of the predicate when χS(v) holds most of
// its subjects.
func PruneCtx(ctx context.Context, st *storage.Store, rel *core.QueryRelation) (*Pruning, error) {
	out := &Pruning{
		Masks:  make([]*bitvec.Vector, st.NumPreds()),
		Total:  st.NumTriples(),
		store:  st,
		filter: make(storage.Filter, st.NumPreds()),
	}
	for _, bs := range rel.Branches {
		if bs.MandatoryEmpty {
			// Theorem 1: no match exists in this branch; it retains
			// nothing.
			continue
		}
		for _, e := range bs.Branch.Edges {
			pid, ok := st.PredIDOf(e.Pred)
			if !ok {
				continue
			}
			chiS, chiO := bs.Sol.Chi[e.From], bs.Sol.Chi[e.To]
			if chiS.IsEmpty() || chiO.IsEmpty() {
				continue
			}
			pf := out.filter[pid]
			if pf == nil {
				pf = &storage.PredFilter{Mask: bitvec.New(st.PredCount(pid))}
				out.filter[pid], out.Masks[pid] = pf, pf.Mask
			}
			pf.Pairs = append(pf.Pairs, storage.ChiPair{S: chiS, O: chiO})
			pf.DistS += chiS.Count()
			pf.DistO += chiO.Count()
			subjects, objects := st.PSO(pid)
			visited, err := markEdge(ctx, subjects, objects, chiS, chiO, pf.Mask)
			if err != nil {
				return nil, err
			}
			out.Visited += visited
		}
	}
	for _, pf := range out.filter {
		if pf != nil {
			pf.Kept = pf.Mask.Count()
			pf.DistS, pf.DistO = min(pf.DistS, pf.Kept), min(pf.DistO, pf.Kept)
			out.Kept += pf.Kept
		}
	}
	if sp := trace.SpanFromContext(ctx); sp != nil {
		sp.Add("mask.visited", int64(out.Visited))
	}
	return out, nil
}

// markEdge sets the mask bit of every position i with subjects[i] ∈ chiS
// and objects[i] ∈ chiO and returns the number of positions it tested.
// subjects is sorted and chiS is walked in ascending order, so the
// position only moves forward.
//
//dualsim:hotpath
func markEdge(ctx context.Context, subjects, objects []storage.NodeID, chiS, chiO, mask *bitvec.Vector) (visited int, err error) {
	pos, sinceCheck := 0, 0
	chiS.ForEach(func(s int) bool {
		if sinceCheck++; sinceCheck >= subjectCheckInterval {
			sinceCheck = 0
			if err = ctx.Err(); err != nil {
				return false
			}
		}
		// A walk over most of the subjects finds the next run where the
		// last one ended; only a gap is worth a search.
		id, start := storage.NodeID(s), pos
		if start < len(subjects) && subjects[start] < id {
			start = gallop(subjects, start+1, id)
		}
		end := start
		for ; end < len(subjects) && subjects[end] == id; end++ {
			if chiO.Get(int(objects[end])) {
				mask.Set(end)
			}
		}
		visited += end - start
		pos = end
		return end < len(subjects)
	})
	return visited, err
}

// gallop returns the first position at or after from whose value is ≥ key
// in the sorted column, or len(col): doubling probes bracket it, a
// bisection pins it, so a nearby target costs O(1) and a far one
// O(log distance).
//
//dualsim:hotpath
func gallop(col []storage.NodeID, from int, key storage.NodeID) int {
	lo, step := from, 1
	for lo+step <= len(col) && col[lo+step-1] < key {
		lo += step
		step *= 2
	}
	// Everything before lo is < key, and col[lo+step-1], if it exists, is
	// not: the answer lies in [lo, lo+step-1].
	i, _ := slices.BinarySearch(col[lo:min(lo+step-1, len(col))], key)
	return lo + i
}

// PruneQuery is the one-call convenience wrapper: translate, solve, prune.
func PruneQuery(st *storage.Store, q *sparql.Query, cfg core.Config) (*Pruning, *core.QueryRelation, error) {
	return PruneQueryCtx(context.Background(), st, q, cfg)
}

// PruneQueryCtx is PruneQuery honouring cancellation during the solve
// and the mask scan.
func PruneQueryCtx(ctx context.Context, st *storage.Store, q *sparql.Query, cfg core.Config) (*Pruning, *core.QueryRelation, error) {
	rel, err := core.QueryDualSimulationCtx(ctx, st, q, cfg)
	if err != nil {
		return nil, nil, err
	}
	p, err := PruneCtx(ctx, st, rel)
	if err != nil {
		return nil, nil, err
	}
	return p, rel, nil
}

// TripleRef addresses one database triple by ids.
type TripleRef struct {
	S storage.NodeID
	P storage.PredID
	O storage.NodeID
}

// Required computes the triples that participate in at least one actual
// match of q — the paper's "No. Req. Triples" column of Table 3. The
// query is split into union-free branches (matching the SOI construction);
// each branch is evaluated with eng, and for every result mapping each
// BGP of the branch contributes its instantiated triples if and only if
// the mapping restricted to the BGP is a match of it (all variables bound
// and all instantiated triples present).
func Required(ctx context.Context, st *storage.Store, q *sparql.Query, eng engine.Engine) ([]TripleRef, error) {
	masks := make([]*bitvec.Vector, st.NumPreds())
	for _, branch := range sparql.UnionFreeBranches(q.Expr) {
		res, err := eng.Evaluate(ctx, st, &sparql.Query{Expr: branch})
		if err != nil {
			return nil, err
		}
		col := make(map[string]int, len(res.Vars))
		for i, v := range res.Vars {
			col[v] = i
		}
		for _, row := range res.Rows {
			markRequired(st, branch, row, col, masks, true)
		}
	}
	var out []TripleRef
	for p, m := range masks {
		if m == nil {
			continue
		}
		m.ForEach(func(i int) bool {
			s, o := st.PairAt(storage.PredID(p), i)
			out = append(out, TripleRef{S: s, P: storage.PredID(p), O: o})
			return true
		})
	}
	return out, nil
}

// RequiredCount is Required reduced to its cardinality.
func RequiredCount(ctx context.Context, st *storage.Store, q *sparql.Query, eng engine.Engine) (int, error) {
	refs, err := Required(ctx, st, q, eng)
	return len(refs), err
}

// markRequired walks a union-free branch. A subexpression's triples count
// only when the mapping actually matched that subexpression: the
// mandatory spine of the branch is matched by construction (active=true),
// while an OPTIONAL right side contributes only if the whole side's
// mandatory part is bound and present under the row — a promoted row may
// coincidentally instantiate one BGP of the optional part without the
// side having matched.
func markRequired(st *storage.Store, e sparql.Expr, row []storage.NodeID, col map[string]int, masks []*bitvec.Vector, active bool) {
	if !active {
		return
	}
	switch x := e.(type) {
	case sparql.BGP:
		if !matchedBGP(st, x, row, col) {
			return
		}
		for _, tp := range x {
			pid, _ := st.PredIDOf(tp.P.Const.Value)
			s, _ := termValue(st, tp.S, row, col)
			o, _ := termValue(st, tp.O, row, col)
			i := st.FindPair(pid, s, o)
			if masks[pid] == nil {
				masks[pid] = bitvec.New(st.PredCount(pid))
			}
			masks[pid].Set(i)
		}
	case sparql.And:
		markRequired(st, x.L, row, col, masks, true)
		markRequired(st, x.R, row, col, masks, true)
	case sparql.Optional:
		markRequired(st, x.L, row, col, masks, true)
		markRequired(st, x.R, row, col, masks, matched(st, x.R, row, col))
	}
}

// matched reports whether the row's bindings satisfy the mandatory part
// of e (dom(µ) covers mand(e) and every mandatory triple is in the
// store) — the condition under which the optional side e participated in
// the mapping.
func matched(st *storage.Store, e sparql.Expr, row []storage.NodeID, col map[string]int) bool {
	switch x := e.(type) {
	case sparql.BGP:
		return matchedBGP(st, x, row, col)
	case sparql.And:
		return matched(st, x.L, row, col) && matched(st, x.R, row, col)
	case sparql.Optional:
		return matched(st, x.L, row, col)
	}
	return false
}

func matchedBGP(st *storage.Store, bgp sparql.BGP, row []storage.NodeID, col map[string]int) bool {
	for _, tp := range bgp {
		if tp.P.IsVar() {
			return false
		}
		pid, ok := st.PredIDOf(tp.P.Const.Value)
		if !ok {
			return false
		}
		s, sOK := termValue(st, tp.S, row, col)
		o, oOK := termValue(st, tp.O, row, col)
		if !sOK || !oOK {
			return false
		}
		if st.FindPair(pid, s, o) < 0 {
			return false
		}
	}
	return true
}

func termValue(st *storage.Store, t sparql.Term, row []storage.NodeID, col map[string]int) (storage.NodeID, bool) {
	if t.IsVar() {
		i, ok := col[t.Var]
		if !ok || row[i] == engine.Unbound {
			return 0, false
		}
		return row[i], true
	}
	id, ok := st.TermID(*t.Const)
	return id, ok
}
