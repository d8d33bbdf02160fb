package storage

import "dualsim/internal/bitvec"

// ChiPair is the solved candidate sets of one pattern edge (v, a, w): S is
// χ(v), O is χ(w). AllO reports that O holds every a-object of every
// subject in S, and AllS that S holds every a-subject of every object in
// O — each counted by the mask walk that derived the pair, so each is a
// fact about the solution, whatever the query's shape.
type ChiPair struct {
	S, O       *bitvec.Vector
	AllS, AllO bool
}

// PredFilter is what a solved dual simulation keeps of one predicate a:
// the triple at PSO position i survives iff some pattern edge (v, a, w)
// has its subject in χ(v) and its object in χ(w). Pairs is that
// definition, Mask the positions it selects: a whole triple is tested by
// its Mask bit, a bound endpoint by Admit over Pairs. The vectors in
// Pairs alias the solver's χ rows: a PredFilter is valid as long as the
// relation it was derived from is not released — for the session, the
// lifetime of the prepared query that keeps both.
type PredFilter struct {
	Pairs []ChiPair
	Mask  *bitvec.Vector
	// Kept is Mask's population count. DistS and DistO bound the distinct
	// subjects and objects kept: Σ|χ(v)| and Σ|χ(w)| over Pairs, capped by
	// Kept — exact for a one-edge predicate, whose every candidate has a
	// partner at the fixpoint.
	Kept, DistS, DistO int
}

// Filter is a store seen through a solved dual simulation, indexed by
// predicate id. A nil entry keeps nothing of the predicate (no pattern
// edge of a satisfiable branch mentions it); a nil Filter is no filter.
type Filter []*PredFilter

// Admit tests a bound endpoint once — the subject when subject is set,
// the object otherwise — and appends to dst the free side's χ of every
// pair that admits it. A neighbour of the endpoint then survives iff one
// of the returned sets holds it; an empty result rules the endpoint out.
//
// A pair whose free side holds every neighbour of its bound side (AllO
// for a bound subject, AllS for a bound object) that admits the endpoint
// ends the test: every neighbour survives, so Admit reports all and
// returns dst as it came.
//
//dualsim:hotpath
func (f *PredFilter) Admit(dst []*bitvec.Vector, id NodeID, subject bool) (alive []*bitvec.Vector, all bool) {
	n := len(dst)
	for _, p := range f.Pairs {
		bound, free, whole := p.S, p.O, p.AllO
		if !subject {
			bound, free, whole = p.O, p.S, p.AllS
		}
		if bound.Get(int(id)) {
			if whole {
				return dst[:n], true
			}
			dst = append(dst, free)
		}
	}
	return dst, false
}
