package dualsim

import (
	"context"
	"sync"
	"testing"

	"dualsim/internal/queries"
	"dualsim/internal/rdf"
	"dualsim/internal/sparql"
)

// TestConcurrentFirstExecutions (-race): eight goroutines run the first
// executions of one prepared query at once. Each may solve; one stores its
// view, the others hand their χ back and read the stored one. Every answer
// and every solver report must be the same, the query must end up holding
// one intact view, and every later execution must read that view.
func TestConcurrentFirstExecutions(t *testing.T) {
	st, err := FromTriples(GenerateLUBM(6, 42))
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(st)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	l0, err := queries.ByID("L0")
	if err != nil {
		t.Fatal(err)
	}
	want, wantStats, err := db.Exec(context.Background(), l0.Text)
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 || wantStats.Solver.Evaluations == 0 {
		t.Fatalf("fixture too small: %d rows, %+v", want.Len(), wantStats.Solver)
	}
	pq, err := db.Prepare(l0.Text)
	if err != nil {
		t.Fatal(err)
	}

	wave := func(name string) []*ExecStats {
		const goroutines = 8
		out := make([]*ExecStats, goroutines)
		var start, done sync.WaitGroup
		start.Add(1)
		for g := range out {
			done.Add(1)
			go func() {
				defer done.Done()
				start.Wait()
				res, stats, err := pq.Exec(context.Background())
				if err != nil {
					t.Errorf("%s, goroutine %d: %v", name, g, err)
					return
				}
				if !res.Equal(want) {
					t.Errorf("%s, goroutine %d: %d rows, want %d", name, g, res.Len(), want.Len())
				}
				out[g] = stats
			}()
		}
		start.Done()
		done.Wait()
		return out
	}
	solved := 0
	for g, stats := range wave("first executions") {
		if stats != nil && !stats.Reused {
			solved++
		}
		if stats != nil && (stats.Solver != wantStats.Solver || stats.TriplesAfter != wantStats.TriplesAfter) {
			t.Errorf("goroutine %d: solver %+v, %d triples kept; want %+v, %d",
				g, stats.Solver, stats.TriplesAfter, wantStats.Solver, wantStats.TriplesAfter)
		}
	}
	t.Logf("%d of 8 first executions solved", solved)
	v := pq.view.Load()
	if v == nil {
		t.Fatal("no view stored after the first executions")
	}
	for i, bs := range v.rel.Branches {
		if bs.Sol.Chi == nil {
			t.Fatalf("branch %d of the stored view was handed back to the solver pool", i)
		}
	}
	for g, stats := range wave("later executions") {
		if stats != nil && (!stats.Reused || stats.Solver != wantStats.Solver) {
			t.Errorf("later execution %d: Reused=%v solver %+v, want the stored view's %+v", g, stats.Reused, stats.Solver, wantStats.Solver)
		}
	}
	if pq.view.Load() != v {
		t.Fatal("the stored view was replaced")
	}
}

// TestReusedExecutionMatchesFresh: over the paper's query set, the second
// execution of a prepared query — which reuses the first one's view —
// reports what the first reported: rows, solver effort, kept triples and
// the plan operator by operator with its estimates. Well-designed queries
// also answer as on a session that does not prune.
func TestReusedExecutionMatchesFresh(t *testing.T) {
	st, err := FromTriples(append(GenerateLUBM(3, 42), GenerateKG(2, 42)...))
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(st)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	unpruned, err := Open(st, WithPruning(false))
	if err != nil {
		t.Fatal(err)
	}
	defer unpruned.Close()
	ctx := context.Background()
	for _, spec := range queries.All() {
		pq, err := db.Prepare(spec.Text)
		if err != nil {
			t.Fatalf("%s: %v", spec.ID, err)
		}
		first, fs, err := pq.Exec(ctx)
		if err != nil {
			t.Fatalf("%s: %v", spec.ID, err)
		}
		second, ss, err := pq.Exec(ctx)
		if err != nil {
			t.Fatalf("%s: %v", spec.ID, err)
		}
		if fs.Reused || !ss.Reused {
			t.Errorf("%s: Reused %v then %v, want false then true", spec.ID, fs.Reused, ss.Reused)
		}
		if !second.Equal(first) {
			t.Errorf("%s: reused execution has %d rows, the first %d", spec.ID, second.Len(), first.Len())
		}
		if ss.Solver != fs.Solver || ss.TriplesAfter != fs.TriplesAfter || ss.Unsatisfiable != fs.Unsatisfiable {
			t.Errorf("%s: reused solver %+v, %d kept, unsat %v; first %+v, %d, %v",
				spec.ID, ss.Solver, ss.TriplesAfter, ss.Unsatisfiable, fs.Solver, fs.TriplesAfter, fs.Unsatisfiable)
		}
		if len(ss.Operators) != len(fs.Operators) {
			t.Fatalf("%s: %d operators reused, %d first", spec.ID, len(ss.Operators), len(fs.Operators))
		}
		for i, op := range fs.Operators {
			got := ss.Operators[i]
			if got.Op != op.Op || got.Detail != op.Detail || got.EstRows != op.EstRows || got.Rows != op.Rows || got.Depth != op.Depth {
				t.Errorf("%s: operator %d reused %+v, first %+v", spec.ID, i, got, op)
			}
		}
		if sparql.IsWellDesigned(pq.q.Expr) {
			res, _, err := unpruned.Exec(ctx, spec.Text)
			if err != nil {
				t.Fatalf("%s: %v", spec.ID, err)
			}
			if !second.Equal(res) {
				t.Errorf("%s: %d rows reused, %d without pruning", spec.ID, second.Len(), res.Len())
			}
		}
	}
}

// TestReusedViewAcrossApply: an Apply deletes a triple the answer used. A
// prepared query pinned to the old epoch keeps answering it from its
// stored view; the session's Query prepares again on the new epoch and
// answers that.
func TestReusedViewAcrossApply(t *testing.T) {
	st, err := FromTriples(queries.Fig1aTriples())
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(st, WithPlanCache(8))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	const src = `SELECT * WHERE { ?d <directed> ?m . ?m <genre> ?g . }`
	pinned, err := db.Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	before, _, err := pinned.Exec(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Query(ctx, src); err != nil {
		t.Fatal(err)
	}
	if before.Len() != 2 {
		t.Fatalf("fixture: %d rows, want 2", before.Len())
	}
	if _, err := db.Apply(ctx, Delta{Dels: []Triple{rdf.T("G._Hamilton", "directed", "Goldfinger")}}); err != nil {
		t.Fatal(err)
	}

	res, stats, err := pinned.Exec(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal(before) || stats.Epoch != 0 || !stats.Reused {
		t.Errorf("pinned query after Apply: %d rows at epoch %d, Reused=%v; want %d at 0, reused", res.Len(), stats.Epoch, stats.Reused, before.Len())
	}
	for i, want := range []bool{false, true} {
		res, stats, err := db.Query(ctx, src)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 1 || stats.Epoch != 1 || stats.CacheHit != want || stats.Reused != want {
			t.Errorf("query %d after Apply: %d rows at epoch %d, CacheHit=%v Reused=%v; want 1 row at 1, both %v",
				i, res.Len(), stats.Epoch, stats.CacheHit, stats.Reused, want)
		}
	}
}
