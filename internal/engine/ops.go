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
