package core

import (
	"context"
	"fmt"

	"dualsim/internal/bitvec"
	"dualsim/internal/rdf"
	"dualsim/internal/soi"
	"dualsim/internal/sparql"
	"dualsim/internal/storage"
)

// This file implements the paper's Sect. 4: translating queries of the
// language S (union-free SPARQL with AND and OPTIONAL) into sound systems
// of inequalities, including the variable renaming for optional
// occurrences (Lemmas 3–5 and the "general case" of Sect. 4.4), plus the
// UNION handling by union-normal-form branching (Proposition 3).
//
// The construction is bottom-up. Each subquery yields a fragment whose
// SOI-variables carry their original query variable and a mandatory flag;
// combining fragments renames colliding names according to:
//
//	AND  (Lemma 3/5):
//	  mandatory/mandatory  → share the name (compatible matches agree);
//	  mandatory/optional   → rename the optional side to a fresh copy f,
//	                         add f ≤ name (the mandatory anchor);
//	  optional/optional    → rename one side fresh, no copy inequality
//	                         (the Sect. 4.4 "no interdependency" case).
//	OPTIONAL (Lemma 4 + Sect. 4.4):
//	  left-mandatory       → rename the right side fresh, add f ≤ name;
//	  left-optional        → rename the right side fresh, no copy;
//	  afterwards every right-side variable becomes optional
//	  (mand(Q1 OPTIONAL Q2) = mand(Q1)).
//
// Renaming rewrites the right-hand sides of previously created copy
// inequalities too, which yields exactly the "syntactically closest"
// chains of Sect. 4.4 (z_R3 ≤ z_R2 ≤ z).

// QueryVar is one SOI variable of a translated query branch.
type QueryVar struct {
	// Name is the SOI variable name: the original variable, a fresh copy
	// "orig#k" for a renamed optional occurrence, or "const:…" for a
	// constant endpoint.
	Name string
	// Orig is the original query variable ("" for constants).
	Orig string
	// Mandatory reports membership in mand(Q) of this occurrence class.
	Mandatory bool
	// Const is the bound term for constant endpoints.
	Const *rdf.Term
}

// BranchEdge is one pattern edge of a branch over SOI variable indexes.
type BranchEdge struct {
	From, To int
	Pred     string
}

// Branch is one union-free branch translated to a system of inequalities.
type Branch struct {
	Expr   sparql.Expr
	Vars   []QueryVar
	Edges  []BranchEdge
	Copies [][2]int // copy inequalities x ≤ y as variable indexes
	Sys    *soi.System
}

// QueryPlan is a full query translated branch-per-union-operand.
type QueryPlan struct {
	Query    *sparql.Query
	Branches []*Branch
}

// ---------------------------------------------------------------------------
// Bottom-up fragment construction.

type fragVar struct {
	orig      string
	mandatory bool
	konst     *rdf.Term
}

type fragment struct {
	vars   map[string]*fragVar
	order  []string // deterministic variable order
	edges  []fragEdge
	copies [][2]string
}

// fragEdge is a fragment edge over names (pre-index-resolution).
type fragEdge struct {
	From, To string
	Pred     string
}

type builder struct {
	fresh int
}

func (b *builder) freshName(orig string) string {
	b.fresh++
	return fmt.Sprintf("%s#%d", orig, b.fresh)
}

func newFragment() *fragment {
	return &fragment{vars: make(map[string]*fragVar)}
}

func (f *fragment) addVar(name string, v fragVar) {
	if _, ok := f.vars[name]; !ok {
		f.order = append(f.order, name)
		cp := v
		f.vars[name] = &cp
	}
}

func (b *builder) build(e sparql.Expr) (*fragment, error) {
	switch x := e.(type) {
	case sparql.BGP:
		return b.buildBGP(x)
	case sparql.And:
		l, err := b.build(x.L)
		if err != nil {
			return nil, err
		}
		r, err := b.build(x.R)
		if err != nil {
			return nil, err
		}
		return b.combine(l, r, false), nil
	case sparql.Optional:
		l, err := b.build(x.L)
		if err != nil {
			return nil, err
		}
		r, err := b.build(x.R)
		if err != nil {
			return nil, err
		}
		return b.combine(l, r, true), nil
	case sparql.Filter:
		// The pattern graph over-approximates the filtered pattern: every
		// match of FILTER(Q, C) is a match of Q, so pruning against Q's
		// pattern graph never loses a filtered answer. The condition is
		// re-applied by the evaluation engines.
		return b.build(x.Inner)
	case sparql.Union:
		return nil, fmt.Errorf("core: UNION must be split into branches before SOI construction")
	default:
		return nil, fmt.Errorf("core: unknown expression %T", e)
	}
}

func (b *builder) buildBGP(bgp sparql.BGP) (*fragment, error) {
	f := newFragment()
	termName := func(t sparql.Term) (string, error) {
		if t.IsVar() {
			f.addVar(t.Var, fragVar{orig: t.Var, mandatory: true})
			return t.Var, nil
		}
		name := "const:" + t.Const.Key()
		f.addVar(name, fragVar{mandatory: true, konst: t.Const})
		return name, nil
	}
	for _, tp := range bgp {
		if tp.P.IsVar() {
			return nil, fmt.Errorf("core: variable predicate %s unsupported by dual simulation (pattern graphs are edge-labeled)", tp.P)
		}
		from, err := termName(tp.S)
		if err != nil {
			return nil, err
		}
		to, err := termName(tp.O)
		if err != nil {
			return nil, err
		}
		f.edges = append(f.edges, fragEdge{From: from, To: to, Pred: tp.P.Const.Value})
	}
	return f, nil
}

// combine merges two fragments under AND (optional=false) or OPTIONAL
// (optional=true), applying the renaming discipline described above.
func (b *builder) combine(l, r *fragment, optional bool) *fragment {
	renameL := make(map[string]string)
	renameR := make(map[string]string)
	var newCopies [][2]string

	for _, name := range r.order {
		rv := r.vars[name]
		lv, shared := l.vars[name]
		if !shared {
			continue
		}
		// Constants go through the same renaming discipline as variables:
		// although their χ is bounded by a fixed singleton, the edge
		// inequalities of an optional part constrain BOTH endpoints, so a
		// shared constant would leak unsatisfiability from an unmatched
		// optional part into the mandatory core.
		switch {
		case optional && lv.mandatory:
			f := b.freshName(orig(rv, name))
			renameR[name] = f
			newCopies = append(newCopies, [2]string{f, name})
		case optional && !lv.mandatory:
			renameR[name] = b.freshName(orig(rv, name))
		case lv.mandatory && rv.mandatory:
			// AND with both mandatory: compatible matches agree, share.
		case lv.mandatory && !rv.mandatory:
			f := b.freshName(orig(rv, name))
			renameR[name] = f
			newCopies = append(newCopies, [2]string{f, name})
		case !lv.mandatory && rv.mandatory:
			f := b.freshName(orig(lv, name))
			renameL[name] = f
			newCopies = append(newCopies, [2]string{f, name})
		default: // both optional under AND
			renameR[name] = b.freshName(orig(rv, name))
		}
	}

	lr := applyRename(l, renameL)
	rr := applyRename(r, renameR)

	out := newFragment()
	for _, n := range lr.order {
		out.addVar(n, *lr.vars[n])
	}
	for _, n := range rr.order {
		v := *rr.vars[n]
		if optional {
			v.mandatory = false
		} else if existing, ok := out.vars[n]; ok {
			// Shared mandatory/mandatory AND case keeps mandatory.
			existing.mandatory = existing.mandatory || v.mandatory
			continue
		}
		out.addVar(n, v)
	}
	out.edges = append(append([]fragEdge{}, lr.edges...), rr.edges...)
	out.copies = append(append(out.copies, lr.copies...), rr.copies...)
	out.copies = append(out.copies, newCopies...)
	return out
}

func orig(v *fragVar, name string) string {
	if v.orig != "" {
		return v.orig
	}
	return name
}

// applyRename rewrites all occurrences of renamed variables, including
// the right-hand sides of existing copy inequalities (which produces the
// "syntactically closest" chains).
func applyRename(f *fragment, ren map[string]string) *fragment {
	if len(ren) == 0 {
		return f
	}
	nm := func(n string) string {
		if r, ok := ren[n]; ok {
			return r
		}
		return n
	}
	out := newFragment()
	for _, n := range f.order {
		out.addVar(nm(n), *f.vars[n])
	}
	for _, e := range f.edges {
		out.edges = append(out.edges, fragEdge{From: nm(e.From), To: nm(e.To), Pred: e.Pred})
	}
	for _, c := range f.copies {
		out.copies = append(out.copies, [2]string{nm(c[0]), nm(c[1])})
	}
	return out
}

// ---------------------------------------------------------------------------
// Lowering to soi.System over a store.

// BuildQueryPlan translates a query into one SOI per union-free branch
// (Theorem 2: each branch's SOI is sound for the branch).
func BuildQueryPlan(st *storage.Store, q *sparql.Query, cfg Config) (*QueryPlan, error) {
	plan := &QueryPlan{Query: q}
	for _, branchExpr := range sparql.UnionFreeBranches(q.Expr) {
		b := &builder{}
		frag, err := b.build(branchExpr)
		if err != nil {
			return nil, err
		}
		br, err := lowerFragment(st, branchExpr, frag)
		if err != nil {
			return nil, err
		}
		plan.Branches = append(plan.Branches, br)
	}
	return plan, nil
}

func lowerFragment(st *storage.Store, e sparql.Expr, f *fragment) (*Branch, error) {
	sys := soi.NewSystem(st.NumNodes())
	br := &Branch{Expr: e, Sys: sys}

	idx := make(map[string]int, len(f.order))
	vars := make([]soi.Var, 0, len(f.order))
	for _, name := range f.order {
		fv := f.vars[name]
		idx[name] = len(vars)
		vars = append(vars, addVar(st, sys, name, fv.konst, fv.mandatory))
		br.Vars = append(br.Vars, QueryVar{
			Name:      name,
			Orig:      fv.orig,
			Mandatory: fv.mandatory,
			Const:     fv.konst,
		})
	}
	for _, e := range f.edges {
		from, to := idx[e.From], idx[e.To]
		addEdge(st, sys, vars[from], vars[to], e.Pred)
		br.Edges = append(br.Edges, BranchEdge{From: from, To: to, Pred: e.Pred})
	}
	for _, c := range f.copies {
		sys.AddCopy(vars[idx[c[0]]], vars[idx[c[1]]])
		br.Copies = append(br.Copies, [2]int{idx[c[0]], idx[c[1]]})
	}
	return br, nil
}

// ---------------------------------------------------------------------------
// Solving.

// BranchSolution is the largest solution of one branch's SOI.
type BranchSolution struct {
	Branch *Branch
	Sol    *soi.Solution
	// MandatoryEmpty reports that some mandatory variable has no
	// candidates: the branch contributes no matches at all (Theorem 1),
	// so everything it would retain may be pruned.
	MandatoryEmpty bool
}

// QueryRelation is the union-of-branches dual simulation result of a
// query.
type QueryRelation struct {
	Plan     *QueryPlan
	Branches []*BranchSolution
	Stats    soi.Stats // aggregated over branches
}

// Finalize freezes every branch system for solving. A finalized plan is
// immutable and may be solved concurrently — the basis for prepared
// queries: translation, lowering and finalization happen once, Solve
// runs per execution.
func (p *QueryPlan) Finalize() {
	for _, br := range p.Branches {
		br.Sys.Finalize()
	}
}

// Solve computes the largest solution of every branch.
func (p *QueryPlan) Solve(cfg Config) *QueryRelation {
	rel, _ := p.SolveRestricted(context.Background(), cfg, nil)
	return rel
}

// SolveRestricted computes the largest solution of every branch,
// honouring ctx cancellation. restrict, when non-nil, carries one
// per-branch slice of initial-bound intersections (indexed like
// Branch.Vars, nil entries skipped) that tightens the solver's starting
// point without mutating the shared plan. Any superset of the largest
// solution leaves the result unchanged — the supplement's theorem on
// solving under restricted bounds — so a bound known to hold, such as a
// χ computed before a deletion-only update, may be passed here.
func (p *QueryPlan) SolveRestricted(ctx context.Context, cfg Config, restrict [][]*bitvec.Vector) (*QueryRelation, error) {
	rel := &QueryRelation{Plan: p}
	for i, br := range p.Branches {
		var opts soi.Options
		if restrict != nil && i < len(restrict) {
			opts.Restrict = restrict[i]
		}
		sol, err := br.Sys.SolveCtx(ctx, opts)
		if err != nil {
			return nil, err
		}
		bs := &BranchSolution{Branch: br, Sol: sol}
		bs.MandatoryEmpty = sol.EmptyRequired(br.Sys)
		rel.Branches = append(rel.Branches, bs)
		rel.Stats.Rounds += sol.Stats.Rounds
		rel.Stats.Evaluations += sol.Stats.Evaluations
		rel.Stats.Updates += sol.Stats.Updates
		rel.Stats.ChiInit += sol.Stats.ChiInit
		rel.Stats.ChiFinal += sol.Stats.ChiFinal
		rel.Stats.RowWise += sol.Stats.RowWise
		rel.Stats.ColWise += sol.Stats.ColWise
		rel.Stats.Copies += sol.Stats.Copies
		rel.Stats.Skipped += sol.Stats.Skipped
	}
	return rel, nil
}

// Release returns every branch solution's χ storage to the per-system
// solver pools, making steady-state repeated solving of a prepared plan
// allocation-free. The relation and its solutions must not be used
// afterwards; Release is optional (skipping it just leaves the work to
// the GC), idempotent, and a no-op on a nil relation.
func (r *QueryRelation) Release() {
	if r == nil {
		return
	}
	for _, bs := range r.Branches {
		bs.Sol.Release()
	}
}

// VarSet returns the union over branches and renamed copies of the
// candidate nodes for an original query variable — the paper's reading of
// the extreme case: "every solution to x_P2 or x_P3 also is a solution to
// variable x". Branches with an empty mandatory core contribute nothing.
func (r *QueryRelation) VarSet(orig string) *bitvec.Vector {
	var out *bitvec.Vector
	for _, bs := range r.Branches {
		if bs.MandatoryEmpty {
			continue
		}
		for i, qv := range bs.Branch.Vars {
			if qv.Orig != orig {
				continue
			}
			if out == nil {
				out = bs.Sol.Chi[i].Clone()
			} else {
				out.Or(bs.Sol.Chi[i])
			}
		}
	}
	if out == nil {
		out = bitvec.New(dimOf(r))
	}
	return out
}

func dimOf(r *QueryRelation) int {
	if len(r.Branches) > 0 {
		return r.Branches[0].Branch.Sys.Dim()
	}
	return 0
}

// Empty reports whether every branch is unsatisfiable.
func (r *QueryRelation) Empty() bool {
	for _, bs := range r.Branches {
		if !bs.MandatoryEmpty {
			return false
		}
	}
	return true
}

// QueryDualSimulation is the convenience entry point: build the plan and
// solve it.
func QueryDualSimulation(st *storage.Store, q *sparql.Query, cfg Config) (*QueryRelation, error) {
	return QueryDualSimulationCtx(context.Background(), st, q, cfg)
}

// QueryDualSimulationCtx is QueryDualSimulation honouring cancellation.
func QueryDualSimulationCtx(ctx context.Context, st *storage.Store, q *sparql.Query, cfg Config) (*QueryRelation, error) {
	plan, err := BuildQueryPlan(st, q, cfg)
	if err != nil {
		return nil, err
	}
	return plan.SolveRestricted(ctx, cfg, nil)
}
