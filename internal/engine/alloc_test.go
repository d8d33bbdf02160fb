package engine

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"dualsim/internal/plan"
	"dualsim/internal/rdf"
	"dualsim/internal/sparql"
	"dualsim/internal/storage"
)

// drainFixture is 25 x —p→ 20 y —q→ nz z —r→ 1 w: 25·20·nz rows of the
// 3-pattern BGP drainQuery.
func drainFixture(t *testing.T, nz int) *storage.Store {
	var ts []rdf.Triple
	for y := 0; y < 20; y++ {
		for x := 0; x < 25; x++ {
			ts = append(ts, rdf.T(fmt.Sprintf("x%d", x), "p", fmt.Sprintf("y%d", y)))
		}
		for z := 0; z < nz; z++ {
			ts = append(ts, rdf.T(fmt.Sprintf("y%d", y), "q", fmt.Sprintf("z%d", z)))
		}
		ts = append(ts, rdf.T(fmt.Sprintf("z%d", y), "r", fmt.Sprintf("w%d", y)))
	}
	return mustStore(t, ts)
}

var drainQuery = sparql.MustParse(`SELECT * WHERE { ?x <p> ?y . ?y <q> ?z . ?z <r> ?w . }`)

// TestDrainAllocsPerRow is the executor's allocation guard, the dynamic
// twin of the //dualsim:hotpath annotations on the operators: compiling
// and draining a 3-pattern BGP with 10,000 result rows costs well under
// one allocation per 20 rows — the windows, the growth of the Result's
// block and the compile itself, nothing per row. (Before the slab and the
// set analysis the same query cost about 4 allocations per row: a
// widened row and a clone per extend, a row key and a map cell in
// distinct.) The second half, reopenedDrainAllocs, pins a kept tree.
func TestDrainAllocsPerRow(t *testing.T) {
	st := drainFixture(t, 20)
	ctx := context.Background()
	rows := 0
	allocs := testing.AllocsPerRun(5, func() {
		ex, err := Compile(st, drainQuery, plan.Options{})
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
	reopenedDrainAllocs(t)
}

// reopenedDrainAllocs: a kept tree, re-Opened and drained into a
// Result sized by the last drain (as the session runs a cached text),
// allocates the Result and its block and nothing else — the same number
// of times at 2,500 rows as at 10,000, and no more bytes than the rows'
// ids plus 16 KB. Rows are flat blocks of ids: no row header, no slab
// chunk, no pointer per row.
func reopenedDrainAllocs(t *testing.T) {
	if raceEnabled {
		t.Log("allocation volumes are not meaningful under the race detector")
		return
	}
	ctx := context.Background()
	var counts []float64
	for _, c := range []struct{ nz, rows int }{{5, 2_500}, {20, 10_000}} {
		ex, err := Compile(drainFixture(t, c.nz), drainQuery, plan.Options{})
		if err != nil {
			t.Fatal(err)
		}
		first, err := Drain(ctx, ex)
		if err != nil {
			t.Fatal(err)
		}
		if first.Len() != c.rows {
			t.Fatalf("fixture yields %d rows, want %d", first.Len(), c.rows)
		}
		drain := func() {
			res := NewResult(ex.Vars()...)
			res.Grow(first.Len())
			if err := ex.Open(ctx); err != nil {
				t.Fatal(err)
			}
			if err := ex.Append(res); err != nil {
				t.Fatal(err)
			}
			ex.Close()
			if res.Len() != c.rows {
				t.Fatalf("re-opened drain yields %d rows, want %d", res.Len(), c.rows)
			}
		}
		allocs := testing.AllocsPerRun(5, drain)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		drain()
		runtime.ReadMemStats(&after)
		w := len(ex.Vars())
		bytes, bound := after.TotalAlloc-before.TotalAlloc, uint64(4*w*c.rows+16<<10)
		t.Logf("%d rows: %.0f allocations, %d bytes (bound %d)", c.rows, allocs, bytes, bound)
		if bytes > bound {
			t.Errorf("%d rows: a re-opened drain allocated %d bytes, want ≤ 4·%d·%d + 16 KB = %d", c.rows, bytes, w, c.rows, bound)
		}
		counts = append(counts, allocs)
	}
	if counts[0] != counts[1] {
		t.Errorf("a re-opened drain allocates %.0f times at 2,500 rows and %.0f at 10,000: something allocates per row", counts[0], counts[1])
	}
}
