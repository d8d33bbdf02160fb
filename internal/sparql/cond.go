package sparql

// Condition is a FILTER expression: comparisons between terms, the
// boolean connectives && / || / !, and the bound(?v) built-in. Conditions
// evaluate under the SPARQL three-valued logic — an operand that is
// unbound (or a variable outside the row's schema) makes a comparison
// error rather than false, and errors propagate through the connectives
// except where short-circuiting decides the value (false && E = false,
// true || E = true).
type Condition interface {
	isCond()
	String() string
}

// Comparison operators accepted in conditions.
const (
	OpEq = "="
	OpNe = "!="
	OpLt = "<"
	OpLe = "<="
	OpGt = ">"
	OpGe = ">="
)

// Comparison is `L op R` with op one of = != < <= > >=. Equality compares
// terms (kind and value); the orderings compare values numerically when
// both parse as numbers and lexically otherwise.
type Comparison struct {
	Op   string
	L, R Term
}

// CondAnd is C1 && C2.
type CondAnd struct{ L, R Condition }

// CondOr is C1 || C2.
type CondOr struct{ L, R Condition }

// CondNot is !C.
type CondNot struct{ C Condition }

// Bound is bound(?v): true iff the row binds v. It never errors.
type Bound struct{ Var string }

func (Comparison) isCond() {}
func (CondAnd) isCond()    {}
func (CondOr) isCond()     {}
func (CondNot) isCond()    {}
func (Bound) isCond()      {}

// The printed forms re-parse to the same tree: connectives always
// parenthesize, comparisons print bare, ! always parenthesizes its
// operand.

func (c Comparison) String() string {
	return c.L.String() + " " + c.Op + " " + c.R.String()
}

func (c CondAnd) String() string {
	return "(" + c.L.String() + " && " + c.R.String() + ")"
}

func (c CondOr) String() string {
	return "(" + c.L.String() + " || " + c.R.String() + ")"
}

func (c CondNot) String() string {
	return "!(" + c.C.String() + ")"
}

func (b Bound) String() string {
	return "bound(?" + b.Var + ")"
}

// CondVars adds every variable occurring in c to set.
func CondVars(c Condition, set map[string]bool) {
	switch x := c.(type) {
	case Comparison:
		if x.L.IsVar() {
			set[x.L.Var] = true
		}
		if x.R.IsVar() {
			set[x.R.Var] = true
		}
	case CondAnd:
		CondVars(x.L, set)
		CondVars(x.R, set)
	case CondOr:
		CondVars(x.L, set)
		CondVars(x.R, set)
	case CondNot:
		CondVars(x.C, set)
	case Bound:
		set[x.Var] = true
	}
}

// Conjuncts splits the top-level && structure of c into a list of
// conjuncts — the units the planner pushes down independently.
func Conjuncts(c Condition) []Condition {
	if a, ok := c.(CondAnd); ok {
		return append(Conjuncts(a.L), Conjuncts(a.R)...)
	}
	return []Condition{c}
}
