package engine

import (
	"fmt"

	"dualsim/internal/bitvec"
	"dualsim/internal/sparql"
	"dualsim/internal/storage"
)

// resolved is a triple pattern with constants resolved against the store
// dictionary. A constant absent from the dictionary makes the pattern
// unsatisfiable (ok == false).
//
// An execution compiled through a solved dual simulation (see
// compiler.resolve) additionally carries keep, the predicate's candidate
// filter — unless the filter keeps every triple of the predicate, where
// reading it could remove nothing (keep stays nil, the keep-all rule of
// compiler.resolve). Neighbour rows come from the store's adjacency
// either way — one row read, addressed by offset — and the accessors
// below apply the filter when there is one.
type resolved struct {
	sVar, oVar string         // variable names; "" for constants
	sID, oID   storage.NodeID // constant ids (valid when the name is "")
	pred       storage.PredID
	ok         bool

	keep *storage.PredFilter
}

// nextPos returns the first PSO position at or after from that the view
// holds, or -1: with a filter the next set bit of the kept-triple mask —
// the walk costs what was kept, not what the predicate holds.
//
//dualsim:hotpath
func (r *resolved) nextPos(st *storage.Store, from int) int {
	if r.keep != nil {
		return r.keep.Mask.NextSet(from)
	}
	if from < st.PredCount(r.pred) {
		return from
	}
	return -1
}

// postings returns the neighbours of a bound endpoint — the objects of a
// subject, or the subjects of an object — read in place, and in alive
// (appended to the caller's scratch) the candidate sets one of which a
// neighbour must be in. With a filter the bound endpoint is tested here,
// once: if no pair admits it there are no neighbours. Without a filter,
// and where a pair that admits the endpoint holds every neighbour on its
// free side (Admit reports all), alive stays empty and every neighbour
// counts — the filter would have kept each one.
//
//dualsim:hotpath
func (r *resolved) postings(st *storage.Store, id storage.NodeID, subject bool, alive []*bitvec.Vector) ([]storage.NodeID, []*bitvec.Vector) {
	if r.keep != nil {
		var all bool
		if alive, all = r.keep.Admit(alive, id, subject); len(alive) == 0 && !all {
			return nil, alive
		}
	}
	if subject {
		return st.Objects(r.pred, id), alive
	}
	return st.Subjects(r.pred, id), alive
}

// has reports whether the view holds (s, pred, o): a search inside the
// subject's neighbour row, then the filter's mask bit at that position.
// A triple the store holds and the filter rejects counts in *filtered.
//
//dualsim:hotpath
func (r *resolved) has(st *storage.Store, s, o storage.NodeID, filtered *int64) bool {
	i := st.FindPair(r.pred, s, o)
	if i < 0 {
		return false
	}
	if r.keep != nil && !r.keep.Mask.Get(i) {
		*filtered++
		return false
	}
	return true
}

// admits reports whether id is in one of the candidate sets; an empty
// alive (no filter) admits everything.
//
//dualsim:hotpath
func admits(alive []*bitvec.Vector, id storage.NodeID) bool {
	for _, chi := range alive {
		if chi.Get(int(id)) {
			return true
		}
	}
	return len(alive) == 0
}

func resolve(st *storage.Store, tp sparql.TriplePattern) (resolved, error) {
	if tp.P.IsVar() {
		return resolved{}, fmt.Errorf("engine: variable predicate %s unsupported (pattern graphs are edge-labeled)", tp.P)
	}
	r := resolved{ok: true}
	pid, ok := st.PredIDOf(tp.P.Const.Value)
	if !ok {
		r.ok = false
	}
	r.pred = pid
	if tp.S.IsVar() {
		r.sVar = tp.S.Var
	} else {
		id, ok := st.TermID(*tp.S.Const)
		if !ok {
			r.ok = false
		}
		r.sID = id
	}
	if tp.O.IsVar() {
		r.oVar = tp.O.Var
	} else {
		id, ok := st.TermID(*tp.O.Const)
		if !ok {
			r.ok = false
		}
		r.oID = id
	}
	return r, nil
}

// vars returns the pattern's variables.
func (r resolved) vars() []string {
	var out []string
	if r.sVar != "" {
		out = append(out, r.sVar)
	}
	if r.oVar != "" && r.oVar != r.sVar {
		out = append(out, r.oVar)
	}
	return out
}
