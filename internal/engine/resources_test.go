package engine

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"dualsim/internal/plan"
	"dualsim/internal/rdf"
	"dualsim/internal/sparql"
)

func resourceFixture(t *testing.T) []rdf.Triple {
	t.Helper()
	var ts []rdf.Triple
	for i := 0; i < 20; i++ {
		s := string(rune('a' + i%5))
		o := string(rune('k' + i%7))
		ts = append(ts, rdf.T("s"+s, "p", "o"+o), rdf.T("s"+s, "q", "o"+o))
	}
	return ts
}

// bufferingQuery is a text whose plan really buffers: a UNION's rows may
// repeat, so the root distinct retains every distinct row. A plain BGP
// retains nothing (TestPlainBGPBuffersNothing).
const bufferingQuery = `SELECT * WHERE { { ?x <p> ?y . } UNION { ?x <q> ?y . } }`

func TestResourceAccountingAlwaysOn(t *testing.T) {
	st := mustStore(t, resourceFixture(t))
	q := sparql.MustParse(bufferingQuery)
	ex, err := Compile(st, q, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Drain(context.Background(), ex)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		t.Fatal("fixture query returned no rows")
	}
	r := ex.Resources()
	// The root distinct buffers every distinct row.
	if r.RowsBuffered != int64(res.Len()) {
		t.Fatalf("rowsBuffered = %d, want %d", r.RowsBuffered, res.Len())
	}
	if r.PeakBytes <= 0 || r.LimitBytes != 0 {
		t.Fatalf("resources = %+v", r)
	}
	// The distinct operator carries the attribution.
	var distinct *OperatorStats
	ops := ex.Operators()
	for i := range ops {
		if ops[i].Op == "distinct" {
			distinct = &ops[i]
		}
	}
	if distinct == nil || distinct.MemBytes <= 0 || distinct.RowsBuffered != int64(res.Len()) {
		t.Fatalf("distinct accounting = %+v", distinct)
	}
}

func TestHashJoinChargesBuildSide(t *testing.T) {
	st := mustStore(t, resourceFixture(t))
	// A group that is not a scan forces the generic hash join (no extend
	// fast path): the right side is drained and charged.
	q := sparql.MustParse(`SELECT * WHERE { ?x <p> ?y . { ?x <q> ?z . OPTIONAL { ?z <p> ?w . } } }`)
	ex, err := Compile(st, q, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Drain(context.Background(), ex); err != nil {
		t.Fatal(err)
	}
	for _, op := range ex.Operators() {
		if op.Op == "hashjoin" {
			if op.MemBytes <= 0 || op.RowsBuffered <= 0 {
				t.Fatalf("hashjoin accounting = %+v", op)
			}
			return
		}
	}
	t.Skip("plan did not use a hash join")
}

// TestPeakBytesPinned pins the cost model: a retained row costs its ids,
// 4 bytes per column, plus one 8-byte table slot. The fixture holds 20
// distinct (s, o) pairs under each of p and q, so the root distinct of
// the UNION retains 20 rows of (x, y): 20 · (4·2 + 8) = 320 bytes. The
// hash join's build side is its OPTIONAL group, 20 rows of (x, z, w)
// with w unbound: 20 · (4·3 + 8) = 400 bytes.
func TestPeakBytesPinned(t *testing.T) {
	st := mustStore(t, resourceFixture(t))
	for _, c := range []struct {
		src, op string
		bytes   int64
	}{
		{bufferingQuery, "distinct", 320},
		{`SELECT * WHERE { ?x <p> ?y . { ?x <q> ?z . OPTIONAL { ?z <p> ?w . } } }`, "hashjoin", 400},
	} {
		ex, err := Compile(st, sparql.MustParse(c.src), plan.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Drain(context.Background(), ex); err != nil {
			t.Fatal(err)
		}
		if r := ex.Resources(); r.PeakBytes != c.bytes || r.RowsBuffered != 20 {
			t.Errorf("%s: resources %+v, want peakBytes %d over 20 rows", c.src, r, c.bytes)
		}
		ops := ex.Operators()
		if op := ops[len(ops)-1]; op.Op != c.op || op.MemBytes != c.bytes || op.RowsBuffered != 20 {
			t.Errorf("%s: root operator %+v, want a %s charged %d bytes for 20 rows", c.src, op, c.op, c.bytes)
		}
	}
}

func TestQueryMemoryBudgetExceeded(t *testing.T) {
	st := mustStore(t, resourceFixture(t))
	q := sparql.MustParse(bufferingQuery)
	ex, err := Compile(st, q, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ex.SetMaxMemory(1) // any buffered row exceeds
	_, err = Drain(context.Background(), ex)
	if !errors.Is(err, ErrQueryMemoryExceeded) {
		t.Fatalf("err = %v, want ErrQueryMemoryExceeded", err)
	}
	if r := ex.Resources(); r.LimitBytes != 1 {
		t.Fatalf("limitBytes = %d, want 1", r.LimitBytes)
	}

	// A generous budget lets the same query through.
	ex2, err := Compile(st, q, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ex2.SetMaxMemory(1 << 20)
	if _, err := Drain(context.Background(), ex2); err != nil {
		t.Fatalf("budgeted run failed: %v", err)
	}
}

// TestPlainBGPBuffersNothing is the converse: a duplicate-free streaming
// plan — a BGP of pipelined extends — has no seen-set and no build side,
// so it reports a zero peak and cannot trip even a 1-byte budget.
func TestPlainBGPBuffersNothing(t *testing.T) {
	st := mustStore(t, resourceFixture(t))
	q := sparql.MustParse(`SELECT * WHERE { ?x <p> ?y . ?x <q> ?z . }`)
	ex, err := Compile(st, q, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ex.SetMaxMemory(1)
	res, err := Drain(context.Background(), ex)
	if err != nil {
		t.Fatalf("plain BGP under a 1-byte budget: %v", err)
	}
	if res.Len() == 0 {
		t.Fatal("fixture query returned no rows")
	}
	if r := ex.Resources(); r.PeakBytes != 0 || r.RowsBuffered != 0 {
		t.Fatalf("resources = %+v, want nothing buffered", r)
	}
	for _, op := range ex.Operators() {
		if op.Op == "distinct" {
			t.Fatalf("plain BGP compiled a distinct: %+v", ex.Operators())
		}
	}
}

func TestBudgetZeroRowQueryPasses(t *testing.T) {
	st := mustStore(t, resourceFixture(t))
	q := sparql.MustParse(`SELECT * WHERE { ?x <nosuch> ?y . }`)
	ex, err := Compile(st, q, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ex.SetMaxMemory(1)
	res, err := Drain(context.Background(), ex)
	if err != nil || res.Len() != 0 {
		t.Fatalf("zero-row budgeted query: rows %v err %v", res, err)
	}
}

// TestReopenIsAFullReset: an Exec re-Opened after a drain starts a new
// execution from nothing — what a reused tree relies on. Each plan is
// compiled once, drained with timing on, re-Opened untimed and drained
// again: the second drain's rows, operator counters and resources must
// equal a fresh compile's, with every Time 0. The plans cover each
// operator that keeps state across pulls: hash join, union, filter,
// left extend, a deduplicating limit and the root distinct.
func TestReopenIsAFullReset(t *testing.T) {
	st := mustStore(t, resourceFixture(t))
	ctx := context.Background()
	for _, src := range []string{
		bufferingQuery,
		`SELECT * WHERE { { ?x <p> ?y . } UNION { ?x <q> ?y . } { ?x <p> ?z . } UNION { ?x <q> ?z . }
			OPTIONAL { ?z <p> ?w . } FILTER(?y != <ok>) } LIMIT 30 OFFSET 2`,
	} {
		pl := plan.Build(st, sparql.MustParse(src), plan.Options{})
		fresh, err := CompilePlan(st, pl)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Drain(ctx, fresh)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := CompilePlan(st, pl)
		if err != nil {
			t.Fatal(err)
		}
		ex.EnableTiming()
		if _, err := Drain(ctx, ex); err != nil {
			t.Fatal(err)
		}
		ops := ex.Operators()
		if ops[len(ops)-1].Time == 0 {
			t.Fatalf("%s: timed drain reports no root time: %+v", src, ops)
		}
		got, err := Drain(ctx, ex)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := rowsOf(got), rowsOf(want); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: re-opened drain streamed %v, fresh %v", src, g, w)
		}
		if got, want := ex.Operators(), fresh.Operators(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: re-opened operators\n %+v\nfresh\n %+v", src, got, want)
		}
		if got, want := ex.Resources(), fresh.Resources(); got != want || got.PeakBytes == 0 {
			t.Fatalf("%s: re-opened resources %+v, fresh %+v", src, got, want)
		}
	}
}
