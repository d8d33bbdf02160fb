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

	"dualsim/internal/bitmat"
	"dualsim/internal/bitvec"
	"dualsim/internal/core"
	"dualsim/internal/engine"
	"dualsim/internal/sparql"
	"dualsim/internal/storage"
)

// Pruning is the outcome of dual-simulation pruning for one query.
type Pruning struct {
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
	masks := make([]*bitvec.Vector, len(p.filter))
	for pid, pf := range p.filter {
		if pf != nil {
			masks[pid] = pf.Mask
		}
	}
	return p.store.RestrictByMask(masks)
}

// Filter returns the pruning as a view of the unpruned store: per
// predicate the candidate-set pairs that define its mask, the mask and the
// kept cardinalities. It selects exactly the triples Store materializes,
// without copying them. The pairs alias the relation's χ rows, so the
// filter is valid as long as the relation is not released: the session
// keeps both for the lifetime of the prepared query, which plans and
// executes through the one filter every time.
func (p *Pruning) Filter() storage.Filter { return p.filter }

// subjectCheckInterval is the number of candidate subjects the mask walk
// visits between two context-cancellation checks.
const subjectCheckInterval = 1 << 16

// PruneCtx computes the kept-triple masks from a solved query relation,
// honouring cancellation: ctx is checked per pattern edge and every
// subjectCheckInterval candidate subjects, and an expired one returns
// (nil, ctx.Err()).
//
// For a pattern edge (v, a, w) the walk is driven by χS(v): each
// candidate subject's run of a-triples comes from F_a's row directory (a
// bit test and a popcount, no search), and only their objects are tested
// against χS(w). It costs O(|χS(v)| + Σ deg) — what the candidates cost.
//
// The walk also counts which pairs keep every neighbour. AllO is set when
// it kept every position it visited: χ(w) holds every a-object of every
// subject in χ(v). AllS is set when it kept every triple whose object is
// in χ(w), summed from B_a's row spans in O(|χS(w)|). Both are facts about
// the largest solution, not about any plan, so the executor may take a
// complete side's neighbours untested for every input row.
func PruneCtx(ctx context.Context, st *storage.Store, rel *core.QueryRelation) (*Pruning, error) {
	out := &Pruning{
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
				out.filter[pid] = pf
			}
			m := st.Matrices(pid)
			_, objects := st.PSO(pid)
			visited, kept, err := markEdge(ctx, m.F, objects, chiS, chiO, pf.Mask)
			if err != nil {
				return nil, err
			}
			pf.Pairs = append(pf.Pairs, storage.ChiPair{
				S: chiS, O: chiO,
				AllS: spansAtMost(m.B, chiO, kept), AllO: kept == visited,
			})
			pf.DistS += chiS.Count()
			pf.DistO += chiO.Count()
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
	return out, nil
}

// markEdge sets the mask bit of every PSO position i whose subject is in
// chiS and whose object objects[i] is in chiO, and returns the number of
// positions it tested and, of those, kept. f is the predicate's forward
// matrix, whose column ids are objects: each candidate subject's run of
// positions is its row's span, read from the row directory.
//
//dualsim:hotpath
func markEdge(ctx context.Context, f *bitmat.CSR, objects []storage.NodeID, chiS, chiO, mask *bitvec.Vector) (visited, kept int, err error) {
	sinceCheck := 0
	chiS.ForEach(func(s int) bool {
		if sinceCheck++; sinceCheck >= subjectCheckInterval {
			sinceCheck = 0
			if err = ctx.Err(); err != nil {
				return false
			}
		}
		lo, hi := f.Span(s)
		for i := lo; i < hi; i++ {
			if chiO.Get(int(objects[i])) {
				mask.Set(i)
				kept++
			}
		}
		visited += hi - lo
		return true
	})
	return visited, kept, err
}

// spansAtMost reports whether the rows of m that chi indexes hold at
// most n cells in all. Given the backward matrix, χ(w) and the edge's
// kept count — every kept triple's object is in χ(w) — it reports
// whether the walk kept every triple with its object in χ(w).
func spansAtMost(m *bitmat.CSR, chi *bitvec.Vector, n int) bool {
	chi.ForEach(func(i int) bool {
		lo, hi := m.Span(i)
		n -= hi - lo
		return n >= 0
	})
	return n >= 0
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
		subjects, objects := st.PSO(storage.PredID(p))
		m.ForEach(func(i int) bool {
			out = append(out, TripleRef{S: subjects[i], P: storage.PredID(p), O: objects[i]})
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
