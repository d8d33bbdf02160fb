package core

import (
	"context"

	"dualsim/internal/bitmat"
	"dualsim/internal/bitvec"
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
	n := st.NumNodes()
	sys := soi.NewSystem(n)

	vars := make([]soi.Var, p.NumVars())
	for i, pv := range p.Vars() {
		var init *bitvec.Vector
		if pv.Const != nil {
			init = bitvec.New(n)
			if id, ok := st.TermID(*pv.Const); ok {
				init.Set(int(id))
			}
		}
		vars[i] = sys.AddVar(pv.Name, init, true)
	}

	for _, e := range p.Edges() {
		mats := predMatrices(st, e.Pred)
		sys.AddEdge(vars[e.From], vars[e.To], mats, e.Pred)
		// Inequality (13): v ≤ ⋀ f_a over outgoing edges ∧ ⋀ b_a over
		// incoming edges.
		sys.ConstrainInit(vars[e.From], mats.F.NonEmptyRows())
		sys.ConstrainInit(vars[e.To], mats.B.NonEmptyRows())
	}
	return sys
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
	rel, _ := DualSimulationCtx(context.Background(), st, p, cfg)
	return rel
}

// DualSimulationCtx is DualSimulation honouring cancellation: the solver
// aborts between inequality evaluations and the ctx error is returned.
func DualSimulationCtx(ctx context.Context, st *storage.Store, p *Pattern, cfg Config) (*Relation, error) {
	sys := BuildSystem(st, p, cfg)
	sol, err := sys.SolveCtx(ctx, soi.Options{})
	if err != nil {
		return nil, err
	}
	return &Relation{Pattern: p, Chi: sol.Chi[:p.NumVars()], Stats: sol.Stats}, nil
}
