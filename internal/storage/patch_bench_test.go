package storage

import (
	"fmt"
	"testing"

	"dualsim/internal/rdf"
)

// benchStore builds a store whose predicate "big" holds n triples (n/8
// subjects with 8 objects each, drawn from n/2 objects) beside 16
// predicates of 1 000 triples over the same terms, so an apply that
// interns a term has every directory to widen.
func benchStore(b *testing.B, n int) *Store {
	b.Helper()
	ts := make([]rdf.Triple, 0, n+16_000)
	for i := 0; i < n; i++ {
		ts = append(ts, rdf.T(fmt.Sprintf("s%d", i/8), "big", fmt.Sprintf("o%d", i*7919%(n/2))))
	}
	for q := 0; q < 16; q++ {
		for i := 0; i < 1000; i++ {
			ts = append(ts, rdf.T(fmt.Sprintf("s%d", (i*31+q)%(n/8)), fmt.Sprintf("q%d", q), fmt.Sprintf("o%d", (i*17+q)%(n/2))))
		}
	}
	st, err := FromTriples(ts)
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// BenchmarkPatchOneTriple applies one add to benchStore(n), every
// iteration from the same base: into the n-triple predicate "big" and
// into the 1 000-triple predicate "q0", each between existing terms
// (the predicate's re-index alone) and with a fresh object (plus the
// dictionary growth and the widening of every other predicate's
// directory, which the small predicate's case isolates).
func BenchmarkPatchOneTriple(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		st := benchStore(b, n)
		for _, pred := range []string{"big", "q0"} {
			existing := rdf.T("s1", pred, "o2")
			s, okS := st.TermID(existing.S)
			p, okP := st.PredIDOf(existing.P)
			o, okO := st.TermID(existing.O)
			if !okS || !okP || !okO || st.HasTriple(s, p, o) {
				b.Fatalf("%v is not an absent triple over existing terms", existing)
			}
			b.Run(fmt.Sprintf("triples=%d/pred=%s/term=existing", n, pred), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := st.Patch([]rdf.Triple{existing}, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("triples=%d/pred=%s/term=fresh", n, pred), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := st.Patch([]rdf.Triple{rdf.T("s1", pred, fmt.Sprintf("fresh%d", i))}, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkCompact compacts a benchStore(300 000) (≈ 316k triples, the
// size of the serving benchmark's store): as built, where no term is
// dead and the indexes carry over, and after a patch that deleted every
// triple of 1 000 subjects, which renumbers every column.
func BenchmarkCompact(b *testing.B) {
	st := benchStore(b, 300_000)
	victims := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		victims[fmt.Sprintf("s%d", i)] = true
	}
	var dels []rdf.Triple
	for _, t := range st.Triples() {
		if victims[t.S.Value] {
			dels = append(dels, t)
		}
	}
	dead, _, err := st.Patch(nil, dels)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		st   *Store
	}{{"dead=none", st}, {"dead=some", dead}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.st.Compact()
			}
		})
	}
}
