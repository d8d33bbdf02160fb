package core

import (
	"context"

	"dualsim/internal/bitmat"
	"dualsim/internal/bitvec"
	"dualsim/internal/rdf"
	"dualsim/internal/soi"
	"dualsim/internal/storage"
)

// Config is the solver configuration, and it has no fields: the system is
// always built with the sharpened initialization (13) over the CSR
// matrices and solved cheapest-first under the popcount strategy of §3.3,
// and the largest solution depends on none of these choices. The type
// stays because the repository benchmark passes Config{} to the entry
// points below.
type Config struct{}

// Relation is the largest dual simulation between a pattern and a store,
// presented through the characteristic function χS: one node set per
// pattern variable.
type Relation struct {
	Pattern *Pattern
	Chi     []*bitvec.Vector
	Stats   soi.Stats
}

// IsEmpty reports whether the relation is the empty dual simulation —
// every variable's χS row is empty.
func (r *Relation) IsEmpty() bool {
	for _, c := range r.Chi {
		if !c.IsEmpty() {
			return false
		}
	}
	return true
}

// Set returns χS of the named variable as a map, for inspection and the
// Definition-2 verifier.
func (r *Relation) Set(name string) map[storage.NodeID]bool {
	i, ok := r.Pattern.VarIndex(name)
	if !ok {
		return nil
	}
	return vecToSet(r.Chi[i])
}

// Sets returns all χS rows as maps, indexed like Pattern.Vars.
func (r *Relation) Sets() []map[storage.NodeID]bool {
	out := make([]map[storage.NodeID]bool, len(r.Chi))
	for i, c := range r.Chi {
		out[i] = vecToSet(c)
	}
	return out
}

func vecToSet(v *bitvec.Vector) map[storage.NodeID]bool {
	m := make(map[storage.NodeID]bool, v.Count())
	v.ForEach(func(i int) bool { m[storage.NodeID(i)] = true; return true })
	return m
}

// BuildSystem translates a pattern graph into its system of inequalities
// over the store (Sect. 3.2): one variable per pattern node, initial
// bounds (12)/(13) plus constant singletons, and the edge inequality pair
// (11) per pattern edge. The returned variable order matches the pattern's
// variable order.
func BuildSystem(st *storage.Store, p *Pattern, cfg Config) *soi.System {
	sys := soi.NewSystem(st.NumNodes())
	vars := make([]soi.Var, p.NumVars())
	for i, pv := range p.Vars() {
		vars[i] = addVar(st, sys, pv.Name, pv.Const, true)
	}
	for _, e := range p.Edges() {
		addEdge(st, sys, vars[e.From], vars[e.To], e.Pred)
	}
	return sys
}

// addVar adds a variable whose initial bound is the full vector (12) or,
// for a constant, its singleton — empty when the store lacks the term.
// With addEdge it is the one lowering of pattern nodes and edges, shared
// by pattern graphs (BuildSystem) and SPARQL branches (lowerFragment).
func addVar(st *storage.Store, sys *soi.System, name string, konst *rdf.Term, required bool) soi.Var {
	var init *bitvec.Vector
	if konst != nil {
		init = bitvec.New(st.NumNodes())
		if id, ok := st.TermID(*konst); ok {
			init.Set(int(id))
		}
	}
	return sys.AddVar(name, init, required)
}

// addEdge installs the inequality pair (11) of the pattern edge (from,
// pred, to) and, by (13), bounds each end by the predicate's non-empty
// rows: v ≤ ⋀ f_a over outgoing edges ∧ ⋀ b_a over incoming edges.
func addEdge(st *storage.Store, sys *soi.System, from, to soi.Var, pred string) {
	mats := predMatrices(st, pred)
	sys.AddEdge(from, to, mats, pred)
	sys.ConstrainInit(from, mats.F.NonEmptyRows())
	sys.ConstrainInit(to, mats.B.NonEmptyRows())
}

// predMatrices fetches the (F_a, B_a) pair for a predicate; an unknown
// predicate yields an empty pair — a summary of the node universe and no
// rows — which correctly forces incident variables to the empty set.
func predMatrices(st *storage.Store, pred string) bitmat.Pair {
	pid, ok := st.PredIDOf(pred)
	if !ok {
		return bitmat.EmptyPair(st.NumNodes())
	}
	return st.Matrices(pid)
}

// DualSimulation computes the largest dual simulation between pattern p
// and the store, the central operation of the paper.
func DualSimulation(st *storage.Store, p *Pattern, cfg Config) *Relation {
	sol := BuildSystem(st, p, cfg).Solve(context.Background(), soi.Options{})
	return &Relation{Pattern: p, Chi: sol.Chi[:p.NumVars()], Stats: sol.Stats}
}
