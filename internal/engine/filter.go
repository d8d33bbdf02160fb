package engine

import (
	"strconv"
	"strings"

	"dualsim/internal/rdf"
	"dualsim/internal/sparql"
	"dualsim/internal/storage"
)

// Filter conditions follow the SPARQL three-valued logic: a condition
// evaluates to true, false or error, and only true keeps the row. An
// operand that is an unbound variable (or a variable outside the row's
// schema) raises an error; errors propagate through && / || / ! except
// where short-circuiting already decides the value (false && E = false,
// true || E = true). bound() never errors.

// evalCond evaluates c over one row. cols maps variable names to row
// columns. It returns the truth value and whether evaluation errored.
func evalCond(st *storage.Store, c sparql.Condition, cols map[string]int, row []storage.NodeID) (val, errv bool) {
	switch x := c.(type) {
	case sparql.Bound:
		i, ok := cols[x.Var]
		return ok && row[i] != Unbound, false
	case sparql.CondNot:
		v, e := evalCond(st, x.C, cols, row)
		if e {
			return false, true
		}
		return !v, false
	case sparql.CondAnd:
		lv, le := evalCond(st, x.L, cols, row)
		rv, re := evalCond(st, x.R, cols, row)
		if (!lv && !le) || (!rv && !re) {
			return false, false
		}
		if le || re {
			return false, true
		}
		return true, false
	case sparql.CondOr:
		lv, le := evalCond(st, x.L, cols, row)
		rv, re := evalCond(st, x.R, cols, row)
		if (lv && !le) || (rv && !re) {
			return true, false
		}
		if le || re {
			return false, true
		}
		return false, false
	case sparql.Comparison:
		lt, le := operandTerm(st, x.L, cols, row)
		rt, re := operandTerm(st, x.R, cols, row)
		if le || re {
			return false, true
		}
		return compareTerms(x.Op, lt, rt), false
	}
	return false, true
}

// operandTerm resolves a comparison operand to its RDF term; a variable
// that is unbound (or absent from the schema) errors.
func operandTerm(st *storage.Store, t sparql.Term, cols map[string]int, row []storage.NodeID) (rdf.Term, bool) {
	if t.IsVar() {
		i, ok := cols[t.Var]
		if !ok || row[i] == Unbound {
			return rdf.Term{}, true
		}
		return st.Term(row[i]), false
	}
	if t.Const == nil {
		return rdf.Term{}, true
	}
	return *t.Const, false
}

// compareTerms applies a comparison operator to two terms. Equality is
// term equality (kind and value); the orderings compare numerically when
// both values parse as numbers and lexically on the value otherwise.
func compareTerms(op string, a, b rdf.Term) bool {
	switch op {
	case sparql.OpEq:
		return a == b
	case sparql.OpNe:
		return a != b
	}
	var cmp int
	af, aerr := strconv.ParseFloat(a.Value, 64)
	bf, berr := strconv.ParseFloat(b.Value, 64)
	if aerr == nil && berr == nil {
		switch {
		case af < bf:
			cmp = -1
		case af > bf:
			cmp = 1
		}
	} else {
		cmp = strings.Compare(a.Value, b.Value)
	}
	switch op {
	case sparql.OpLt:
		return cmp < 0
	case sparql.OpLe:
		return cmp <= 0
	case sparql.OpGt:
		return cmp > 0
	case sparql.OpGe:
		return cmp >= 0
	}
	return false
}
