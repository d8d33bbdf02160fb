// Package core implements the paper's primary contribution: computing the
// largest dual simulation between a query and a graph database via the
// system-of-inequalities formulation (Sect. 3), and its conservative
// extension to SPARQL queries with AND, UNION and OPTIONAL operators
// (Sect. 4).
//
// There is one translation: BuildQueryPlan lowers each union-free branch
// of a query to a system of inequalities (Sect. 4), and every pattern node
// and edge it meets goes through addVar and addEdge (Sect. 3.2), which copy
// no n-bit vector: a constant is its node id, and a bound is the store's
// own summary vector, shared with the system and never written. A pattern
// graph is the basic graph pattern that spells it, constants where it
// binds a node; for such an OPTIONAL-free BGP the branch's system is
// exactly the Sect. 3 system of the pattern graph (Lemma 3).
package core

import (
	"fmt"

	"dualsim/internal/bitmat"
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

// addVar adds a variable whose initial bound is the full vector (12) or,
// for a constant, its singleton: the constant's node id, or -1 (χ empty)
// when the store lacks the term.
func addVar(st *storage.Store, sys *soi.System, name string, konst *rdf.Term, required bool) soi.Var {
	if konst == nil {
		return sys.AddVar(name, required)
	}
	id := -1
	if tid, ok := st.TermID(*konst); ok {
		id = int(tid)
	}
	return sys.AddConst(name, id, required)
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

// IsCyclic reports whether the branch's pattern edges contain an
// undirected cycle — the paper's §5.3 distinguishes cyclic queries (L0,
// L1) from acyclic ones when discussing convergence behaviour. Parallel
// edges between the same variable pair count as a cycle.
func (b *Branch) IsCyclic() bool {
	parent := make([]int, len(b.Vars))
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range b.Edges {
		x, y := find(e.From), find(e.To)
		if x == y {
			return true
		}
		parent[x] = y
	}
	return false
}

// VerifyDualSimulation checks Definition 2 directly against the store: for
// the candidate relation given as per-variable node sets (indexed like
// Vars), every pair must have all its pattern edges supported in both
// directions, and a constant may only contain its own node. It returns an
// error describing the first violation, or nil if the relation is a dual
// simulation of the branch's pattern graph. Tests use it as the reference
// every solver implementation is checked against.
func (b *Branch) VerifyDualSimulation(st *storage.Store, sets []map[storage.NodeID]bool) error {
	if len(sets) != len(b.Vars) {
		return fmt.Errorf("core: %d sets for %d variables", len(sets), len(b.Vars))
	}
	for _, e := range b.Edges {
		pid, ok := st.PredIDOf(e.Pred)
		if !ok {
			if len(sets[e.From]) > 0 || len(sets[e.To]) > 0 {
				return fmt.Errorf("core: predicate %q absent but endpoints non-empty", e.Pred)
			}
			continue
		}
		// Def. 2(i): v2 ∈ S(From) needs an a-successor in S(To).
		for v2 := range sets[e.From] {
			if !anyIn(st.Objects(pid, v2), sets[e.To]) {
				return fmt.Errorf("core: %s=%d lacks %s-successor in %s",
					b.Vars[e.From].Name, v2, e.Pred, b.Vars[e.To].Name)
			}
		}
		// Def. 2(ii): w2 ∈ S(To) needs an a-predecessor in S(From).
		for w2 := range sets[e.To] {
			if !anyIn(st.Subjects(pid, w2), sets[e.From]) {
				return fmt.Errorf("core: %s=%d lacks %s-predecessor in %s",
					b.Vars[e.To].Name, w2, e.Pred, b.Vars[e.From].Name)
			}
		}
	}
	for i, v := range b.Vars {
		if v.Const == nil {
			continue
		}
		id, ok := st.TermID(*v.Const)
		for n := range sets[i] {
			if !ok || n != id {
				return fmt.Errorf("core: constant %s contains foreign node %d", v.Name, n)
			}
		}
	}
	return nil
}

func anyIn(xs []storage.NodeID, set map[storage.NodeID]bool) bool {
	for _, x := range xs {
		if set[x] {
			return true
		}
	}
	return false
}
