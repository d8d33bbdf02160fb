// Package baseline implements the two comparator algorithms the paper
// measures SPARQLSIM against (Sect. 3.3 and Table 2):
//
//   - MaEtAl: the dual simulation algorithm of Ma et al. [20], adjusted to
//     edge-labeled graphs. It follows the "single passive strategy": in
//     every pass it re-checks Definition 2 for every pattern edge and every
//     candidate node, until a whole pass disqualifies nothing.
//   - HHK: an adaptation of the Henzinger/Henzinger/Kopke algorithm [17]
//     with per-(variable, label, direction) remove sets maintained through
//     support counters, adjusted to labeled graphs and duality.
//
// Both compute the same largest dual simulation as the SOI solver in
// internal/core; the equivalence is property-tested. The point of keeping
// them faithful rather than fast is the paper's specific data complexity
// hypothesis: naive implementations of HHK and Ma et al. show no
// significant difference in the labeled graph query setting, while the SOI
// formulation beats both.
package baseline

import (
	"dualsim/internal/core"
	"dualsim/internal/storage"
)

// Result is the computed largest dual simulation plus effort metrics.
type Result struct {
	// Sim[i] is the set of data nodes simulating pattern variable i.
	Sim []map[storage.NodeID]bool
	// Iterations counts full passes over all pattern edges (Ma et al.)
	// or remove-set pops (HHK).
	Iterations int
	// Checks counts individual support tests.
	Checks int
}

// MaEtAl computes the largest dual simulation with the passive
// re-checking strategy of Ma et al., adjusted to labeled graphs. The
// pattern graph is the branch of an OPTIONAL-free basic graph pattern
// (its Vars, with their constants, and its Edges); Sim is indexed like
// its Vars.
func MaEtAl(st *storage.Store, p *core.Branch) *Result {
	res := &Result{Sim: initialCandidates(st, p)}

	for {
		res.Iterations++
		changed := false
		for _, e := range p.Edges {
			pid, ok := st.PredIDOf(e.Pred)
			if !ok {
				// No a-labeled edge exists: both endpoints lose all
				// candidates.
				if len(res.Sim[e.From]) > 0 || len(res.Sim[e.To]) > 0 {
					res.Sim[e.From] = map[storage.NodeID]bool{}
					res.Sim[e.To] = map[storage.NodeID]bool{}
					changed = true
				}
				continue
			}
			// Def. 2(i): every v ∈ sim(From) needs an a-successor in
			// sim(To).
			for v := range res.Sim[e.From] {
				res.Checks++
				if !anySupported(st.Objects(pid, v), res.Sim[e.To]) {
					delete(res.Sim[e.From], v)
					changed = true
				}
			}
			// Def. 2(ii): every w ∈ sim(To) needs an a-predecessor in
			// sim(From).
			for w := range res.Sim[e.To] {
				res.Checks++
				if !anySupported(st.Subjects(pid, w), res.Sim[e.From]) {
					delete(res.Sim[e.To], w)
					changed = true
				}
			}
		}
		if !changed {
			return res
		}
	}
}

func anySupported(ns []storage.NodeID, sim map[storage.NodeID]bool) bool {
	for _, n := range ns {
		if sim[n] {
			return true
		}
	}
	return false
}

// initialCandidates seeds sim(v) for every pattern variable with the nodes
// that support v's incident edge labels (and with the constant singleton
// for bound variables) — the label-match initialization of Ma et al.,
// transposed to the edge-labeled setting. Every variable of a branch has
// an incident edge, so every set is seeded.
func initialCandidates(st *storage.Store, p *core.Branch) []map[storage.NodeID]bool {
	sim := make([]map[storage.NodeID]bool, len(p.Vars))

	// Constants first.
	for i, pv := range p.Vars {
		if pv.Const == nil {
			continue
		}
		sim[i] = map[storage.NodeID]bool{}
		if id, ok := st.TermID(*pv.Const); ok {
			sim[i][id] = true
		}
	}

	constrain := func(v int, allowed map[storage.NodeID]bool) {
		if sim[v] == nil {
			cp := make(map[storage.NodeID]bool, len(allowed))
			for k := range allowed {
				cp[k] = true
			}
			sim[v] = cp
			return
		}
		for k := range sim[v] {
			if !allowed[k] {
				delete(sim[v], k)
			}
		}
	}

	for _, e := range p.Edges {
		pid, ok := st.PredIDOf(e.Pred)
		if !ok {
			sim[e.From] = map[storage.NodeID]bool{}
			sim[e.To] = map[storage.NodeID]bool{}
			continue
		}
		subs := make(map[storage.NodeID]bool)
		objs := make(map[storage.NodeID]bool)
		subjects, objects := st.PSO(pid)
		for i, s := range subjects {
			subs[s] = true
			objs[objects[i]] = true
		}
		constrain(e.From, subs)
		constrain(e.To, objs)
	}
	return sim
}
