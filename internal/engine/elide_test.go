package engine_test

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dualsim/internal/core"
	"dualsim/internal/engine"
	"dualsim/internal/plan"
	"dualsim/internal/proptest"
	"dualsim/internal/prune"
	"dualsim/internal/sparql"
	"dualsim/internal/storage"
)

// elideRegressionSeeds are replayed before anything else. No real
// counterexample has been found yet; these are the seeds on which a
// deliberately broken elision first differed from the filtered
// compilation, so each rule keeps a witness however the exploration
// seeds fall.
var elideRegressionSeeds = []int64{
	2740103009342231109,  // keep-all on a predicate whose filter dropped one triple
	894385949183117216,   // leaf on a variable that is an endpoint of two edges
	-4204422741139725788, // leaf without testing the bound endpoint against the leaf pair
	-8617977389221806050, // leaf on an optional copy, which its copy inequality bounds
}

// elideShapes counts, over a property run, the plans an elision rule
// touched, so a drifting generator cannot hollow the property out.
type elideShapes struct {
	keepAll     int // a plan with a (keeps all) elision
	leaf        int // a plan with a (leaf) elision
	leafOptNWD  int // … of a non-well-designed OPTIONAL query
	sharedPred  int // … whose predicate carries two or more pairs
	leafRowsOut int // … that emitted rows
}

// TestPropertyElidedMatchesFiltered: on random stores and random texts
// mixing AND, OPTIONAL (non-well-designed ones included), UNION and
// FILTER, the plan compiled with the filter elisions (keep-all, leaf)
// streams the rows, in order, that the same plan compiled with every
// pattern reading the filter streams, and every operator reports the
// same counters — Rows and Filtered included: an elided test is one that
// would have removed nothing.
func TestPropertyElidedMatchesFiltered(t *testing.T) {
	ctx := context.Background()
	var shapes elideShapes
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		st, err := storage.FromTriples(engine.RandomTriples(r, 6+r.Intn(3), 2+r.Intn(2), 10+r.Intn(20)))
		if err != nil {
			t.Fatal(err)
		}
		var expr sparql.Expr
		if r.Intn(2) == 0 {
			expr = engine.RandomQuery(r, 3, 3, 3)
		} else {
			expr = engine.RandomFilteredExpr(r, 3)
		}
		q := &sparql.Query{Expr: expr}
		p, rel, err := prune.PruneQueryCtx(ctx, st, q, core.Config{})
		if err != nil {
			t.Fatalf("seed %d: prune %s: %v", seed, q, err)
		}
		defer rel.Release()
		pl := plan.Build(st, q, plan.Options{Filter: p.Filter()})
		type drained struct {
			rows [][]storage.NodeID
			ops  []engine.OperatorStats
			log  []string
		}
		drain := func(compile func(*storage.Store, *plan.Plan) (*engine.Exec, error)) drained {
			ex, err := compile(st, pl)
			if err != nil {
				t.Fatalf("seed %d: compile %s: %v", seed, q, err)
			}
			res, err := engine.Drain(ctx, ex)
			if err != nil {
				t.Fatalf("seed %d: drain %s: %v", seed, q, err)
			}
			return drained{engine.RowsOf(res), ex.Operators(), ex.Decisions()}
		}
		elided, filtered := drain(engine.CompilePlan), drain(engine.CompilePlanUnelided)
		if !slices.EqualFunc(elided.rows, filtered.rows, slices.Equal) {
			t.Logf("seed %d query %s (elisions %q): rows %v elided, %v filtered", seed, q, elided.log, elided.rows, filtered.rows)
			return false
		}
		for i, op := range elided.ops {
			if op != filtered.ops[i] {
				t.Logf("seed %d query %s (elisions %q): %s %s reports %+v elided, %+v filtered", seed, q, elided.log, op.Op, op.Detail, op, filtered.ops[i])
				return false
			}
		}
		if !slices.Equal(filtered.log, pl.Decisions) || !slices.Equal(elided.log[:len(pl.Decisions)], pl.Decisions) {
			t.Logf("seed %d query %s: elided log %q, filtered log %q, plan log %q", seed, q, elided.log, filtered.log, pl.Decisions)
			return false
		}
		notes := elided.log[len(pl.Decisions):]
		if slices.ContainsFunc(notes, func(d string) bool { return strings.HasSuffix(d, "(keeps all)") }) {
			shapes.keepAll++
		}
		if slices.ContainsFunc(notes, func(d string) bool { return strings.HasSuffix(d, "(leaf)") }) {
			shapes.leaf++
			if !sparql.IsWellDesigned(q.Expr) {
				shapes.leafOptNWD++
			}
			if slices.ContainsFunc(p.Filter(), func(pf *storage.PredFilter) bool { return pf != nil && len(pf.Pairs) > 1 }) {
				shapes.sharedPred++
			}
			if len(elided.rows) > 0 {
				shapes.leafRowsOut++
			}
		}
		return true
	}
	proptest.Check(t, f, 1500, elideRegressionSeeds)
	t.Logf("shapes: %+v", shapes)
	if shapes.keepAll < 100 || shapes.leaf < 100 || shapes.leafOptNWD < 20 || shapes.sharedPred < 50 || shapes.leafRowsOut < 50 {
		t.Fatalf("generator drifted: %+v", shapes)
	}
}
