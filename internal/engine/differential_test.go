package engine

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"dualsim/internal/sparql"
	"dualsim/internal/storage"
)

// randomCond draws a random filter condition over the same variable
// space randomQuery uses, mixing comparisons (variables, constants and
// literals on either side), bound() and the three connectives.
func randomCond(r *rand.Rand, depth, vars int) sparql.Condition {
	if depth == 0 || r.Intn(2) == 0 {
		if r.Intn(4) == 0 {
			return sparql.Bound{Var: fmt.Sprintf("v%d", r.Intn(vars))}
		}
		ops := []string{sparql.OpEq, sparql.OpNe, sparql.OpLt, sparql.OpLe, sparql.OpGt, sparql.OpGe}
		return sparql.Comparison{Op: ops[r.Intn(len(ops))], L: randTerm(r, vars), R: randTerm(r, vars)}
	}
	switch r.Intn(3) {
	case 0:
		return sparql.CondAnd{L: randomCond(r, depth-1, vars), R: randomCond(r, depth-1, vars)}
	case 1:
		return sparql.CondOr{L: randomCond(r, depth-1, vars), R: randomCond(r, depth-1, vars)}
	default:
		return sparql.CondNot{C: randomCond(r, depth-1, vars)}
	}
}

// randomFilteredExpr draws an expression with AND/OPTIONAL/UNION
// structure and sprinkles FILTER wrappers at the root and, half the
// time, around one operand of a random binary connective.
func randomFilteredExpr(r *rand.Rand, vars int) sparql.Expr {
	e := randomQuery(r, 2, vars, 2)
	if r.Intn(2) == 0 {
		l := sparql.Filter{Inner: randomQuery(r, 1, vars, 2), Cond: randomCond(r, 1, vars)}
		switch r.Intn(3) {
		case 0:
			e = sparql.And{L: l, R: e}
		case 1:
			e = sparql.Optional{L: e, R: l}
		default:
			e = sparql.Union{L: l, R: e}
		}
	}
	return sparql.Filter{Inner: e, Cond: randomCond(r, 2, vars)}
}

// TestDifferentialFilterAgainstReference extends the engine parity
// property to the FILTER surface: on random stores and random filtered
// queries (conditions over bound and unbound variables, constants and
// literals, all connectives), the executor (and the IndexNL oracle) must
// produce exactly the reference's mapping set.
func TestDifferentialFilterAgainstReference(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		st, err := storage.FromTriples(randomTriples(r, 6, 2, 10))
		if err != nil {
			t.Fatal(err)
		}
		q := &sparql.Query{Expr: randomFilteredExpr(r, 3)}
		want, err := NewReference().Evaluate(context.Background(), st, q)
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		for _, e := range fastEngines() {
			got, err := e.Evaluate(context.Background(), st, q)
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, e.Name(), err)
			}
			if !got.Equal(want) {
				t.Fatalf("seed %d query %s:\n%s got %d rows, reference %d rows",
					seed, q, e.Name(), got.Len(), want.Len())
			}
		}
	}
}

// TestDifferentialLimitAgainstReference checks the LIMIT/OFFSET
// contract on random filtered queries. Set semantics fixes no row
// order, so engines are free to pick different windows; what must hold
// for every engine is that the truncated result is a set of distinct
// rows drawn from the full answer, of exactly the size the window
// dictates: min(limit, max(0, |full| − offset)).
func TestDifferentialLimitAgainstReference(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed + 10_000))
		st, err := storage.FromTriples(randomTriples(r, 6, 2, 10))
		if err != nil {
			t.Fatal(err)
		}
		expr := randomFilteredExpr(r, 3)
		full, err := NewReference().Evaluate(context.Background(), st, &sparql.Query{Expr: expr})
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		limit, offset := r.Intn(4)+1, r.Intn(3)
		q := &sparql.Query{Expr: expr, Limit: limit, Offset: offset}
		for _, e := range engines() {
			got, err := e.Evaluate(context.Background(), st, q)
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, e.Name(), err)
			}
			if err := checkWindow(got, full, limit, offset); err != nil {
				t.Fatalf("seed %d query %s LIMIT %d OFFSET %d: %s: %v", seed, expr, limit, offset, e.Name(), err)
			}
		}
	}
}

// checkWindow checks the LIMIT/OFFSET contract of got against the full
// answer: exactly min(limit, max(0, |full|−offset)) distinct rows, all
// drawn from full.
func checkWindow(got, full *Result, limit, offset int) error {
	fullC := full.Canonical()
	want := fullC.Len() - offset
	if want < 0 {
		want = 0
	}
	if want > limit {
		want = limit
	}
	inFull := make(map[string]bool, fullC.Len())
	for _, row := range fullC.Rows {
		inFull[fmt.Sprint(row)] = true
	}
	gotC := got.Canonical()
	if gotC.Len() != want {
		return fmt.Errorf("%d distinct rows, want %d (full %d)", gotC.Len(), want, fullC.Len())
	}
	for _, row := range gotC.Rows {
		if !inFull[fmt.Sprint(row)] {
			return fmt.Errorf("row %v is outside the full answer", row)
		}
	}
	return nil
}
