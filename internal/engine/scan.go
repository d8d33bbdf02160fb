package engine

import (
	"fmt"

	"dualsim/internal/sparql"
	"dualsim/internal/storage"
)

// resolved is a triple pattern with constants resolved against the store
// dictionary. A constant absent from the dictionary makes the pattern
// unsatisfiable (ok == false).
type resolved struct {
	sVar, oVar string         // variable names; "" for constants
	sID, oID   storage.NodeID // constant ids (valid when the name is "")
	pred       storage.PredID
	ok         bool
	src        sparql.TriplePattern
}

func resolve(st *storage.Store, tp sparql.TriplePattern) (resolved, error) {
	if tp.P.IsVar() {
		return resolved{}, fmt.Errorf("engine: variable predicate %s unsupported (pattern graphs are edge-labeled)", tp.P)
	}
	r := resolved{ok: true, src: tp}
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
