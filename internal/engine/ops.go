package engine

import "dualsim/internal/storage"

// rowCheckInterval is the number of rows a join or scan loop processes
// between two context-cancellation checks.
const rowCheckInterval = 1024

func sharedVars(l, r *Result) []string {
	var out []string
	for _, v := range l.Vars {
		if r.VarIndex(v) >= 0 {
			out = append(out, v)
		}
	}
	return out
}

func unionVars(l, r *Result) []string {
	out := append([]string(nil), l.Vars...)
	for _, v := range r.Vars {
		if l.VarIndex(v) < 0 {
			out = append(out, v)
		}
	}
	return out
}

func varIndexes(res *Result, vars []string) []int {
	out := make([]int, len(vars))
	for i, v := range vars {
		out[i] = res.VarIndex(v)
	}
	return out
}

func allBound(row []storage.NodeID, idx []int) bool {
	for _, i := range idx {
		if row[i] == Unbound {
			return false
		}
	}
	return true
}

func keyOf(row []storage.NodeID, idx []int) string {
	key := make([]storage.NodeID, len(idx))
	for i, j := range idx {
		key[i] = row[j]
	}
	return rowKey(key)
}

// compatible implements µ1 ⇋ µ2: agreement on every shared variable bound
// in both mappings.
func compatible(l, r *Result, lrow, rrow []storage.NodeID, shared []string) bool {
	for _, v := range shared {
		lv := lrow[l.VarIndex(v)]
		rv := rrow[r.VarIndex(v)]
		if lv != Unbound && rv != Unbound && lv != rv {
			return false
		}
	}
	return true
}

func rTargetIndex(outVars []string, v string) int {
	for i, x := range outVars {
		if x == v {
			return i
		}
	}
	return -1
}

// constOrBinding resolves a pattern position to a node id: the constant,
// or the row's binding of the variable when it has one.
func constOrBinding(v string, constID storage.NodeID, row []storage.NodeID, varCol map[string]int) (storage.NodeID, bool) {
	if v == "" {
		return constID, true
	}
	if val := row[varCol[v]]; val != Unbound {
		return val, true
	}
	return 0, false
}
