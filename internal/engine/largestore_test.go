package engine_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"dualsim/internal/core"
	"dualsim/internal/engine"
	"dualsim/internal/prune"
	"dualsim/internal/sparql"
	"dualsim/internal/storage"
)

// TestDifferentialVolcanoAgainstIndexNL is the executor's differential
// on stores too large for the exponential reference: seeded random
// graphs of ≥ 2,000 triples × random AND/OPTIONAL/UNION/FILTER queries.
// On the full store and again on the query's pruned store the executor
// must return exactly the IndexNL oracle's mapping set — as a set, with
// no row streamed twice — and a
// LIMIT/OFFSET window of exactly the size the oracle's answer dictates.
// Pruned against unpruned: every answer's mandatory core survives
// pruning (the paper's soundness), and for well-designed queries the
// answers are identical — non-well-designed nested optionals may see
// optional extensions differ (prune.TestNonWellDesignedPromotionNuance).
func TestDifferentialVolcanoAgainstIndexNL(t *testing.T) {
	ctx := context.Background()
	volcano, oracle := engine.NewVolcano(), engine.NewIndexNL()
	exact := 0
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed + 20_000))
		st, err := storage.FromTriples(engine.RandomTriples(r, 300, 2, 2400))
		if err != nil {
			t.Fatal(err)
		}
		if st.NumTriples() < 2000 {
			t.Fatalf("seed %d: store has %d triples, want ≥ 2000", seed, st.NumTriples())
		}
		expr := engine.RandomFilteredExpr(r, 3)
		q := &sparql.Query{Expr: expr}
		limit, offset := r.Intn(40)+1, r.Intn(20)
		lq := &sparql.Query{Expr: expr, Limit: limit, Offset: offset}

		p, _, err := prune.PruneQueryCtx(ctx, st, q, core.Config{})
		if err != nil {
			t.Fatalf("seed %d: prune: %v", seed, err)
		}
		var answers [2]*engine.Result
		for i, target := range []*storage.Store{st, p.Store()} {
			which := [2]string{"full", "pruned"}[i]
			want, err := oracle.Evaluate(ctx, target, q)
			if err != nil {
				t.Fatalf("seed %d (%s store): oracle: %v", seed, which, err)
			}
			got, err := volcano.Evaluate(ctx, target, q)
			if err != nil {
				t.Fatalf("seed %d (%s store): volcano: %v", seed, which, err)
			}
			if !got.Equal(want) {
				t.Fatalf("seed %d (%s store) query %s:\nvolcano %d rows, indexnl %d rows", seed, which, q, got.Len(), want.Len())
			}
			// The drained stream is already a set: a distinct is compiled
			// exactly where duplicates can arise.
			if !engine.IsSet(got) {
				t.Fatalf("seed %d (%s store) query %s: volcano streamed a row twice (%d rows)", seed, which, q, got.Len())
			}
			win, err := volcano.Evaluate(ctx, target, lq)
			if err != nil {
				t.Fatalf("seed %d (%s store): volcano LIMIT: %v", seed, which, err)
			}
			if err := engine.CheckWindow(win, want, limit, offset); err != nil {
				t.Fatalf("seed %d (%s store) query %s LIMIT %d OFFSET %d: %v", seed, which, expr, limit, offset, err)
			}
			answers[i] = got
		}

		full, pruned := answers[0], answers[1]
		var mand []string
		for v := range sparql.Mand(expr) {
			mand = append(mand, v)
		}
		kept := make(map[string]bool, pruned.Len())
		for _, row := range pruned.Project(mand).Rows {
			kept[fmt.Sprint(row)] = true
		}
		for _, row := range full.Project(mand).Rows {
			if !kept[fmt.Sprint(row)] {
				t.Fatalf("seed %d query %s: pruning lost the mandatory core %v", seed, q, row)
			}
		}
		if sparql.IsWellDesigned(expr) {
			exact++
			if !full.Equal(pruned) {
				t.Fatalf("seed %d well-designed query %s:\nunpruned %d rows, pruned %d rows", seed, q, full.Len(), pruned.Len())
			}
		}
	}
	if exact < 10 {
		t.Fatalf("only %d well-designed queries checked for pruned ≡ unpruned; generator drifted", exact)
	}
}
