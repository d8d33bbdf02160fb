package engine

import (
	"context"
	"testing"

	"dualsim/internal/rdf"
	"dualsim/internal/sparql"
)

// TestZeroWidthRows is the regression test of quick seed
// 9198463668290011579 (TestPropertyEnginesMatchReference): a join whose
// left input is a constants-only BGP sees zero-column rows. The executor
// used to clone rows with append([]NodeID(nil), row...) — nil for a
// zero-width row — and to test "have a current row" with lrow != nil, so
// such a left input silently produced no output. Operator state is
// explicit now; a row's nil-ness means nothing.
func TestZeroWidthRows(t *testing.T) {
	// The store the seed generates (duplicates included).
	st := mustStore(t, []rdf.Triple{
		rdf.T("n1", "p1", "n1"), rdf.T("n3", "p1", "n2"), rdf.T("n1", "p1", "n2"),
		rdf.T("n3", "p1", "n2"), rdf.T("n0", "p0", "n5"), rdf.T("n3", "p1", "n5"),
		rdf.T("n2", "p0", "n1"), rdf.T("n0", "p0", "n5"), rdf.T("n3", "p0", "n5"),
		rdf.T("n4", "p1", "n0"),
	})
	const consts = `{ <n1> <p1> <n2> . <n0> <p0> <n5> . }`
	cases := []struct {
		name, where string
		rows        int
	}{
		{"seed: leftjoin after a constants-only extend", consts + ` OPTIONAL { ?v2 <p1> ?v2 . ?v2 <p1> ?v2 . }`, 1},
		{"leftjoin, two-pattern right side", consts + ` OPTIONAL { ?v2 <p1> ?v3 . ?v3 <p0> ?v4 . }`, 3},
		{"hashjoin, two-pattern right side", consts + ` { ?v2 <p1> ?v3 . ?v3 <p0> ?v4 . }`, 3},
		{"leftjoin, unmatched: the empty mapping survives", consts + ` OPTIONAL { ?v2 <p0> ?v3 . ?v3 <p0> ?v3 . }`, 1},
		{"extendleft over a zero-width row", consts + ` OPTIONAL { ?v2 <p0> ?v3 . }`, 3},
		{"constants only: one empty mapping", consts, 1},
	}
	ctx := context.Background()
	for _, c := range cases {
		q := sparql.MustParse(`SELECT * WHERE { ` + c.where + ` }`)
		want, err := NewReference().Evaluate(ctx, st, q)
		if err != nil {
			t.Fatalf("%s: reference: %v", c.name, err)
		}
		if want.Len() != c.rows {
			t.Fatalf("%s: reference has %d rows, the table says %d", c.name, want.Len(), c.rows)
		}
		for _, e := range fastEngines() {
			got, err := e.Evaluate(ctx, st, q)
			if err != nil {
				t.Fatalf("%s: %s: %v", c.name, e.Name(), err)
			}
			if !got.Equal(want) {
				t.Errorf("%s: %s returns %d rows, reference %d", c.name, e.Name(), got.Len(), want.Len())
			}
		}
	}
}
