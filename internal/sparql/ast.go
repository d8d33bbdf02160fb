// Package sparql implements the query language fragment S of the paper's
// Sect. 4: union-free SPARQL queries built from basic graph patterns with
// AND and OPTIONAL operators, plus UNION (Sect. 4.2), with the formal set
// semantics of Pérez, Arenas and Gutierrez. It provides the abstract
// syntax, a parser for the concrete `SELECT * WHERE { … }` syntax, the
// variable analyses vars/mand, the well-designedness test, and the
// union-normal-form rewriting (Proposition 3).
package sparql

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"dualsim/internal/rdf"
)

// Term is a subject, predicate or object position of a triple pattern:
// either a variable or a constant database term.
type Term struct {
	Var   string    // non-empty for a variable
	Const *rdf.Term // non-nil for a constant
}

// V returns a variable term.
func V(name string) Term { return Term{Var: name} }

// C returns a constant IRI term.
func C(iri string) Term {
	t := rdf.NewIRI(iri)
	return Term{Const: &t}
}

// CL returns a constant literal term.
func CL(lit string) Term {
	t := rdf.NewLiteral(lit)
	return Term{Const: &t}
}

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return t.Var != "" }

func (t Term) String() string {
	if t.IsVar() {
		return "?" + t.Var
	}
	if t.Const == nil {
		return "<?>"
	}
	return t.Const.String()
}

// TriplePattern is one triple pattern (s, p, o).
type TriplePattern struct {
	S, P, O Term
}

func (tp TriplePattern) String() string {
	return fmt.Sprintf("%s %s %s .", tp.S, tp.P, tp.O)
}

// Expr is a graph pattern expression: BGP, And, Optional, Union or
// Filter.
type Expr interface {
	isExpr()
	String() string
}

// BGP is a basic graph pattern — a set of triple patterns.
type BGP []TriplePattern

// And is the conjunction Q1 AND Q2 (inner join).
type And struct{ L, R Expr }

// Optional is Q1 OPTIONAL Q2 (left outer join).
type Optional struct{ L, R Expr }

// Union is Q1 UNION Q2.
type Union struct{ L, R Expr }

// Filter is Q FILTER(C): the mappings of Q whose condition evaluates to
// true (errors — e.g. comparisons on unbound variables — drop the row).
type Filter struct {
	Inner Expr
	Cond  Condition
}

func (BGP) isExpr()      {}
func (And) isExpr()      {}
func (Optional) isExpr() {}
func (Union) isExpr()    {}
func (Filter) isExpr()   {}

// String renders every expression in re-parseable concrete syntax, so
// Parse(q.String()) reproduces the query.

func (b BGP) String() string {
	if len(b) == 0 {
		return "{ }"
	}
	var sb strings.Builder
	sb.WriteString("{ ")
	for i, tp := range b {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(tp.String())
	}
	sb.WriteString(" }")
	return sb.String()
}

func (a And) String() string {
	return "{ " + a.L.String() + " " + a.R.String() + " }"
}

func (o Optional) String() string {
	return "{ " + o.L.String() + " OPTIONAL " + o.R.String() + " }"
}

func (u Union) String() string {
	return "{ " + u.L.String() + " UNION " + u.R.String() + " }"
}

func (f Filter) String() string {
	return "{ " + f.Inner.String() + " FILTER(" + f.Cond.String() + ") }"
}

// Query is a SELECT * query over one graph pattern, optionally truncated
// by a LIMIT/OFFSET solution-set modifier. Limit 0 means "no limit" (the
// parser rejects a literal LIMIT 0), Offset 0 means "no offset".
type Query struct {
	Expr   Expr
	Limit  int
	Offset int
}

func (q *Query) String() string {
	s := "SELECT * WHERE " + q.Expr.String()
	if q.Limit > 0 {
		s += fmt.Sprintf(" LIMIT %d", q.Limit)
	}
	if q.Offset > 0 {
		s += fmt.Sprintf(" OFFSET %d", q.Offset)
	}
	return s
}

// Vars returns vars(e): every variable occurring in e, sorted.
func Vars(e Expr) []string {
	set := make(map[string]bool)
	collectVars(e, set)
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// SelectVars returns the SELECT * columns of e: the variables its
// triple patterns mention, in the order they first occur in the text. A
// variable only a FILTER names binds nothing and has no column.
func SelectVars(e Expr) []string {
	var out []string
	var walk func(Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case BGP:
			for _, tp := range x {
				for _, t := range []Term{tp.S, tp.P, tp.O} {
					if t.IsVar() && !slices.Contains(out, t.Var) {
						out = append(out, t.Var)
					}
				}
			}
		case And:
			walk(x.L)
			walk(x.R)
		case Optional:
			walk(x.L)
			walk(x.R)
		case Union:
			walk(x.L)
			walk(x.R)
		case Filter:
			walk(x.Inner)
		}
	}
	walk(e)
	return out
}

// VarSet returns vars(e) as a set.
func VarSet(e Expr) map[string]bool {
	set := make(map[string]bool)
	collectVars(e, set)
	return set
}

func collectVars(e Expr, set map[string]bool) {
	switch x := e.(type) {
	case BGP:
		for _, tp := range x {
			for _, t := range []Term{tp.S, tp.P, tp.O} {
				if t.IsVar() {
					set[t.Var] = true
				}
			}
		}
	case And:
		collectVars(x.L, set)
		collectVars(x.R, set)
	case Optional:
		collectVars(x.L, set)
		collectVars(x.R, set)
	case Union:
		collectVars(x.L, set)
		collectVars(x.R, set)
	case Filter:
		collectVars(x.Inner, set)
		CondVars(x.Cond, set)
	}
}

// Mand returns mand(e), the mandatory variables of Sect. 4.3:
//
//	mand(G)                = vars(G)
//	mand(Q1 AND Q2)        = mand(Q1) ∪ mand(Q2)
//	mand(Q1 OPTIONAL Q2)   = mand(Q1)
//	mand(Q1 UNION Q2)      = mand(Q1) ∩ mand(Q2)   (bound in every branch)
func Mand(e Expr) map[string]bool {
	switch x := e.(type) {
	case BGP:
		return VarSet(x)
	case And:
		l, r := Mand(x.L), Mand(x.R)
		for v := range r {
			l[v] = true
		}
		return l
	case Optional:
		return Mand(x.L)
	case Union:
		l, r := Mand(x.L), Mand(x.R)
		out := make(map[string]bool)
		for v := range l {
			if r[v] {
				out[v] = true
			}
		}
		return out
	case Filter:
		// A filter only removes rows; the surviving rows bind at least
		// the mandatory variables of the inner pattern.
		return Mand(x.Inner)
	}
	return nil
}

// IsWellDesigned reports whether the query is well-designed (Pérez et
// al. [27], cf. Sect. 4.5): for every sub-pattern Q1 OPTIONAL Q2, every
// variable of Q2 that also occurs outside the sub-pattern occurs in Q1.
// The check applies to the UNION-free branches individually.
func IsWellDesigned(e Expr) bool {
	total := make(map[string]int)
	countVarOccurrences(e, total)
	return wellDesignedRec(e, total)
}

func wellDesignedRec(e Expr, total map[string]int) bool {
	switch x := e.(type) {
	case BGP:
		return true
	case And:
		return wellDesignedRec(x.L, total) && wellDesignedRec(x.R, total)
	case Union:
		return wellDesignedRec(x.L, total) && wellDesignedRec(x.R, total)
	case Filter:
		return wellDesignedRec(x.Inner, total)
	case Optional:
		// Occurrences inside this whole optional pattern.
		inside := make(map[string]int)
		countVarOccurrences(x, inside)
		lvars := VarSet(x.L)
		for v := range VarSet(x.R) {
			if total[v] > inside[v] && !lvars[v] {
				return false
			}
		}
		return wellDesignedRec(x.L, total) && wellDesignedRec(x.R, total)
	}
	return true
}

func countVarOccurrences(e Expr, counts map[string]int) {
	switch x := e.(type) {
	case BGP:
		for _, tp := range x {
			for _, t := range []Term{tp.S, tp.P, tp.O} {
				if t.IsVar() {
					counts[t.Var]++
				}
			}
		}
	case And:
		countVarOccurrences(x.L, counts)
		countVarOccurrences(x.R, counts)
	case Optional:
		countVarOccurrences(x.L, counts)
		countVarOccurrences(x.R, counts)
	case Union:
		countVarOccurrences(x.L, counts)
		countVarOccurrences(x.R, counts)
	case Filter:
		countVarOccurrences(x.Inner, counts)
		// Condition variables count as occurrences: a filter mentioning an
		// optional variable outside its OPTIONAL breaks well-designedness.
		set := make(map[string]bool)
		CondVars(x.Cond, set)
		for v := range set {
			counts[v]++
		}
	}
}

// HasUnion reports whether e contains a UNION operator.
func HasUnion(e Expr) bool {
	switch x := e.(type) {
	case BGP:
		return false
	case And:
		return HasUnion(x.L) || HasUnion(x.R)
	case Optional:
		return HasUnion(x.L) || HasUnion(x.R)
	case Union:
		return true
	case Filter:
		return HasUnion(x.Inner)
	}
	return false
}

// UnionFreeBranches rewrites e into a list of UNION-free expressions
// Q1, …, Qk with ⟦e⟧ = ⟦Q1 UNION … UNION Qk⟧ (Proposition 3), using the
// distributivity laws of Pérez et al.:
//
//	(P1 UNION P2) AND P3  ≡ (P1 AND P3) UNION (P2 AND P3)
//	P1 AND (P2 UNION P3)  ≡ (P1 AND P2) UNION (P1 AND P3)
//	(P1 UNION P2) OPT P3  ≡ (P1 OPT P3) UNION (P2 OPT P3)
//
// A UNION in the right argument of OPTIONAL has no exact distributivity
// law; it is rewritten to P1 OPT (P2 UNION P3) → (P1 OPT P2) UNION
// (P1 OPT P3), which OVER-approximates the result set (it may add matches
// of P1 alone). That is sound for dual-simulation pruning — no original
// match is lost — and the exact evaluation engines never use this
// rewriting (they evaluate UNION natively).
func UnionFreeBranches(e Expr) []Expr {
	switch x := e.(type) {
	case BGP:
		return []Expr{x}
	case Union:
		return append(UnionFreeBranches(x.L), UnionFreeBranches(x.R)...)
	case And:
		var out []Expr
		for _, l := range UnionFreeBranches(x.L) {
			for _, r := range UnionFreeBranches(x.R) {
				out = append(out, And{L: l, R: r})
			}
		}
		return out
	case Optional:
		var out []Expr
		for _, l := range UnionFreeBranches(x.L) {
			for _, r := range UnionFreeBranches(x.R) {
				out = append(out, Optional{L: l, R: r})
			}
		}
		return out
	case Filter:
		// FILTER distributes exactly over UNION:
		// (P1 UNION P2) FILTER C ≡ (P1 FILTER C) UNION (P2 FILTER C).
		var out []Expr
		for _, b := range UnionFreeBranches(x.Inner) {
			out = append(out, Filter{Inner: b, Cond: x.Cond})
		}
		return out
	}
	return nil
}

// Triples collects every triple pattern of e (over all operators).
func Triples(e Expr) []TriplePattern {
	var out []TriplePattern
	var rec func(Expr)
	rec = func(e Expr) {
		switch x := e.(type) {
		case BGP:
			out = append(out, x...)
		case And:
			rec(x.L)
			rec(x.R)
		case Optional:
			rec(x.L)
			rec(x.R)
		case Union:
			rec(x.L)
			rec(x.R)
		case Filter:
			rec(x.Inner)
		}
	}
	rec(e)
	return out
}
