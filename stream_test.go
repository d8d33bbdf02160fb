package dualsim_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"dualsim"
	"dualsim/internal/queries"
)

// drainRows pulls every row off the cursor into a Result for set
// comparison against the materializing path.
func drainRows(t *testing.T, rows *dualsim.Rows) *dualsim.Result {
	t.Helper()
	out := &dualsim.Result{Vars: append([]string{}, rows.Vars()...)}
	for rows.Next() {
		out.Rows = append(out.Rows, rows.Row())
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestStreamMatchesExec: the cursor path delivers exactly the mapping
// set of the materializing Exec path, and its finalized stats carry the
// streaming executor's operator counters.
func TestStreamMatchesExec(t *testing.T) {
	st := fig1a(t)
	db, err := dualsim.Open(st)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	pq, err := db.Prepare(queries.QueryX1)
	if err != nil {
		t.Fatal(err)
	}

	want, _, err := pq.Exec(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rows, err := pq.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	got := drainRows(t, rows)
	if !got.Equal(want) {
		t.Fatalf("stream rows != exec rows: %d vs %d", got.Len(), want.Len())
	}

	stats := rows.Stats()
	if stats.Results != want.Len() {
		t.Fatalf("stats.Results = %d, want %d", stats.Results, want.Len())
	}
	if es := stats.Stage("evaluate"); es == nil || es.Out != want.Len() {
		t.Fatalf("evaluate stage = %+v, want Out %d", es, want.Len())
	}
	if ps := stats.Stage("prune"); ps == nil || ps.In != 20 || ps.Out != 4 {
		t.Fatalf("prune stage = %+v, want 20 -> 4", ps)
	}
	if len(stats.Operators) == 0 {
		t.Fatal("stats.Operators empty — streaming executor counters missing")
	}
	var sawScan bool
	var produced int64
	for _, op := range stats.Operators {
		if op.Op == "scan" || op.Op == "extend" {
			sawScan = true
		}
		produced += op.Rows
	}
	if !sawScan {
		t.Fatalf("no scan/extend operator in %+v", stats.Operators)
	}
	if produced == 0 {
		t.Fatal("operator row counters all zero after a non-empty stream")
	}
	if stats.Duration == 0 {
		t.Fatal("stats.Duration not finalized")
	}
}

// TestExecIsStreamDrained: Exec and Stream are one pipeline, so on every
// query of the paper's Tables 2–5 set, with pruning on and off, they
// return the same mapping set, the same stages with the same In/Out, and
// both carry the executor's operator counters and resource accounting.
func TestExecIsStreamDrained(t *testing.T) {
	lubm, err := dualsim.FromTriples(dualsim.GenerateLUBM(3, 42))
	if err != nil {
		t.Fatal(err)
	}
	kg, err := dualsim.FromTriples(dualsim.GenerateKG(1, 42))
	if err != nil {
		t.Fatal(err)
	}
	stores := map[string]*dualsim.Store{"lubm": lubm, "kg": kg}
	ctx := context.Background()
	for _, pruning := range []bool{true, false} {
		dbs := map[string]*dualsim.DB{}
		for name, st := range stores {
			dbs[name] = open(t, st, dualsim.WithPruning(pruning))
		}
		for _, spec := range queries.All() {
			pq, err := dbs[spec.Dataset].Prepare(spec.Text)
			if err != nil {
				t.Fatalf("%s: %v", spec.ID, err)
			}
			want, es, err := pq.Exec(ctx)
			if err != nil {
				t.Fatalf("%s: Exec: %v", spec.ID, err)
			}
			rows, err := pq.Stream(ctx)
			if err != nil {
				t.Fatalf("%s: Stream: %v", spec.ID, err)
			}
			got := drainRows(t, rows)
			rows.Close()
			ss := rows.Stats()
			if !got.Equal(want) {
				t.Fatalf("%s pruning=%v: Stream %d rows, Exec %d", spec.ID, pruning, got.Len(), want.Len())
			}
			if len(es.Stages) != len(ss.Stages) || es.Results != ss.Results || es.TriplesAfter != ss.TriplesAfter {
				t.Fatalf("%s pruning=%v: stats differ:\n exec   %+v\n stream %+v", spec.ID, pruning, es, ss)
			}
			for i, e := range es.Stages {
				if s := ss.Stages[i]; e.Name != s.Name || e.In != s.In || e.Out != s.Out {
					t.Fatalf("%s pruning=%v: stage %d: exec %+v, stream %+v", spec.ID, pruning, i, e, s)
				}
			}
			if (es.Stage("prune") != nil) != pruning || es.Stage("evaluate") == nil {
				t.Fatalf("%s pruning=%v: stages %+v", spec.ID, pruning, es.Stages)
			}
			for which, st := range map[string]*dualsim.ExecStats{"Exec": es, "Stream": ss} {
				if len(st.Operators) == 0 || st.Resources == nil {
					t.Fatalf("%s pruning=%v: %s stats lack operators/resources: %+v", spec.ID, pruning, which, st)
				}
			}
		}
	}
}

// TestOracleSessionExecAndStream: a WithEngine(IndexNL) session answers
// Exec and Stream from the oracle — the same rows as the executor, and no
// Volcano operators in either's stats.
func TestOracleSessionExecAndStream(t *testing.T) {
	st := fig1a(t)
	want, _, err := open(t, st).Exec(context.Background(), queries.QueryX2)
	if err != nil {
		t.Fatal(err)
	}
	pq, err := open(t, st, dualsim.WithEngine(dualsim.IndexNL)).Prepare(queries.QueryX2)
	if err != nil {
		t.Fatal(err)
	}
	res, es, err := pq.Exec(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rows, err := pq.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	streamed := drainRows(t, rows)
	if !res.Equal(want) || !streamed.Equal(want) {
		t.Fatalf("oracle session: Exec %d rows, Stream %d rows, executor %d", res.Len(), streamed.Len(), want.Len())
	}
	if len(es.Operators) != 0 || len(rows.Stats().Operators) != 0 || len(es.PlanDecisions) != 0 {
		t.Fatalf("oracle session reports Volcano operators: exec %+v, stream %+v", es.Operators, rows.Stats().Operators)
	}
	if es.Results != want.Len() || rows.Stats().Results != want.Len() {
		t.Fatalf("oracle session results: exec %d, stream %d, want %d", es.Results, rows.Stats().Results, want.Len())
	}
}

// TestStreamEarlyClose: closing a cursor mid-stream finalizes stats at
// the rows delivered so far and is idempotent.
func TestStreamEarlyClose(t *testing.T) {
	st := fig1a(t)
	db, err := dualsim.Open(st)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	pq, err := db.Prepare(queries.QueryX1)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := pq.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if rows.Next() {
		t.Fatal("Next after Close returned a row")
	}
	if stats := rows.Stats(); stats.Results != 1 {
		t.Fatalf("stats.Results = %d, want the 1 row pulled before Close", stats.Results)
	}
}

// TestStreamEarlyCloseBoundsWork: a cursor pulls windows of 1, 2, 4 …
// rows, so one closed after k rows leaves no operator with more than
// 2k+1 rows computed, on a 10⁴-row chain where every row extends 10 ways.
func TestStreamEarlyCloseBoundsWork(t *testing.T) {
	var ts []dualsim.Triple
	for i := 0; i < 100; i++ {
		for j := 0; j < 10; j++ {
			ts = append(ts, dualsim.T(fmt.Sprintf("a%d", i), "p", fmt.Sprintf("b%d", 10*i+j)))
		}
	}
	for i := 0; i < 1000; i++ {
		for j := 0; j < 10; j++ {
			ts = append(ts, dualsim.T(fmt.Sprintf("b%d", i), "q", fmt.Sprintf("c%d", j)))
		}
	}
	st, err := dualsim.FromTriples(ts)
	if err != nil {
		t.Fatal(err)
	}
	db := open(t, st)
	pq, err := db.Prepare(`SELECT * WHERE { ?a <p> ?b . ?b <q> ?c . }`)
	if err != nil {
		t.Fatal(err)
	}
	if res, _, err := pq.Exec(context.Background()); err != nil || res.Len() != 10_000 {
		t.Fatalf("fixture: %v rows, %v", res, err)
	}
	for _, k := range []int{1, 2, 3, 7, 100} {
		rows, err := pq.Stream(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < k; n++ {
			if !rows.Next() {
				t.Fatalf("k=%d: no row %d: %v", k, n, rows.Err())
			}
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
		for _, op := range rows.Stats().Operators {
			if op.Rows > int64(2*k+1) {
				t.Errorf("closed after %d rows: %s %s computed %d rows, want ≤ %d", k, op.Op, op.Detail, op.Rows, 2*k+1)
			}
		}
	}
}

// TestStreamCancellation: a cancelled context surfaces through Err, not
// as a silent end of stream.
func TestStreamCancellation(t *testing.T) {
	st := fig1a(t)
	db, err := dualsim.Open(st)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	pq, err := db.Prepare(queries.QueryX1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pq.Stream(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Stream(cancelled) err = %v, want context.Canceled", err)
	}
}

// TestStreamLimitPushdown: a LIMIT query streams exactly the window and
// the executor records the limit operator.
func TestStreamLimitPushdown(t *testing.T) {
	st := fig1a(t)
	db, err := dualsim.Open(st)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	pq, err := db.Prepare(`SELECT * WHERE { ?d <directed> ?m . } LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := pq.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	got := drainRows(t, rows)
	if got.Len() != 1 {
		t.Fatalf("rows = %d, want 1", got.Len())
	}
	var sawLimit bool
	for _, op := range rows.Stats().Operators {
		if op.Op == "limit" {
			sawLimit = true
		}
	}
	if !sawLimit {
		t.Fatalf("no limit operator in %+v", rows.Stats().Operators)
	}
}

// TestSnapshotQueryStream: the pinned streaming entry point reports plan
// cache traffic and answers from the pinned epoch.
func TestSnapshotQueryStream(t *testing.T) {
	st := fig1a(t)
	db, err := dualsim.Open(st, dualsim.WithPlanCache(4))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	snap := db.Snapshot()
	rows1, err := snap.QueryStream(context.Background(), queries.QueryX1)
	if err != nil {
		t.Fatal(err)
	}
	n1 := drainRows(t, rows1).Len()
	rows1.Close()
	if rows1.Stats().CacheHit {
		t.Fatal("first QueryStream reported a cache hit")
	}
	rows2, err := snap.QueryStream(context.Background(), queries.QueryX1)
	if err != nil {
		t.Fatal(err)
	}
	defer rows2.Close()
	if n2 := drainRows(t, rows2).Len(); n2 != n1 {
		t.Fatalf("second stream %d rows, first %d", n2, n1)
	}
	if !rows2.Stats().CacheHit {
		t.Fatal("second QueryStream missed the plan cache")
	}
	if rows2.Stats().Epoch != snap.Epoch() {
		t.Fatalf("stream epoch %d, snapshot %d", rows2.Stats().Epoch, snap.Epoch())
	}
}
