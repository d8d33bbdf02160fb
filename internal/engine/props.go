package engine

import "slices"

// rowProps is what the compiler knows, from the plan shape alone, about
// the rows a node produces — the set analysis that decides where the
// executor has to deduplicate.
//
// Queries are SELECT * over a deduplicated store, so most plans cannot
// produce the same mapping twice: a scan is a set, and a join of two sets
// is a set as long as every output row determines the pair of input rows
// it was merged from. That fails exactly when a join variable may be
// unbound on one side — (x=1, v=⊥) and (x=1, v=2) both join (v=2) to
// (1, 2) — and for unions, whose branches may overlap.
type rowProps struct {
	// distinct (D): the rows are pairwise distinct.
	distinct bool
	// certain (C): the variables bound in every row.
	certain []string
}

// scanProps: a scan (or the unit) is a set binding all of its variables.
func scanProps(vars []string) rowProps {
	return rowProps{distinct: true, certain: vars}
}

// joinProps is the rule for Join and LeftJoin, whichever physical
// operator they compile to. The result is a set iff both inputs are and
// every shared variable is certain on both sides; a left join guarantees
// only the left side's bindings.
func joinProps(l, r rowProps, lVars, rVars []string, leftOuter bool) rowProps {
	out := rowProps{distinct: l.distinct && r.distinct, certain: l.certain}
	for _, v := range lVars {
		if slices.Contains(rVars, v) && !(slices.Contains(l.certain, v) && slices.Contains(r.certain, v)) {
			out.distinct = false
		}
	}
	if !leftOuter {
		out.certain = slices.Clone(l.certain)
		for _, v := range r.certain {
			if !slices.Contains(out.certain, v) {
				out.certain = append(out.certain, v)
			}
		}
	}
	return out
}

// unionProps: branches may overlap, so a union is never known to be a
// set; only variables certain in both branches stay certain.
func unionProps(l, r rowProps) rowProps {
	var out rowProps
	for _, v := range l.certain {
		if slices.Contains(r.certain, v) {
			out.certain = append(out.certain, v)
		}
	}
	return out
}
