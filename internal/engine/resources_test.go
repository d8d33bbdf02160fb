package engine

import (
	"context"
	"errors"
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
	// Disjoint variable sets force the generic hash join (no extend fast
	// path): the right side is drained and charged.
	q := sparql.MustParse(`SELECT * WHERE { ?x <p> ?y . ?z <q> ?w . }`)
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
