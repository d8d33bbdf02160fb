package engine

import (
	"context"
	"fmt"
	"testing"

	"dualsim/internal/plan"
	"dualsim/internal/rdf"
	"dualsim/internal/sparql"
)

// TestDrainAllocsPerRow is the executor's allocation guard, the dynamic
// twin of the //dualsim:hotpath annotations on the operators: compiling
// and draining a 3-pattern BGP with 10,000 result rows costs well under
// one allocation per 20 rows — slab chunks, the growth of Result.Rows
// and the compile itself, nothing per row. (Before the slab and the set
// analysis the same query cost about 4 allocations per row: a widened
// row and a clone per extend, a row key and a map cell in distinct.)
func TestDrainAllocsPerRow(t *testing.T) {
	// 25 x —p→ 20 y —q→ 20 z —r→ 1 w: 25·20·20 = 10,000 rows.
	var ts []rdf.Triple
	for y := 0; y < 20; y++ {
		for x := 0; x < 25; x++ {
			ts = append(ts, rdf.T(fmt.Sprintf("x%d", x), "p", fmt.Sprintf("y%d", y)))
		}
		for z := 0; z < 20; z++ {
			ts = append(ts, rdf.T(fmt.Sprintf("y%d", y), "q", fmt.Sprintf("z%d", z)))
		}
		ts = append(ts, rdf.T(fmt.Sprintf("z%d", y), "r", fmt.Sprintf("w%d", y)))
	}
	st := mustStore(t, ts)
	q := sparql.MustParse(`SELECT * WHERE { ?x <p> ?y . ?y <q> ?z . ?z <r> ?w . }`)
	ctx := context.Background()
	rows := 0
	allocs := testing.AllocsPerRun(5, func() {
		ex, err := Compile(st, q, plan.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Drain(ctx, ex)
		if err != nil {
			t.Fatal(err)
		}
		rows = res.Len()
	})
	if rows < 10_000 {
		t.Fatalf("fixture yields %d rows, want ≥ 10000", rows)
	}
	if perRow := allocs / float64(rows); perRow >= 0.05 {
		t.Fatalf("%.0f allocations for %d rows = %.3f per row, want < 0.05", allocs, rows, perRow)
	} else {
		t.Logf("%.0f allocations for %d rows = %.4f per row", allocs, rows, perRow)
	}
}
