package plan

import (
	"fmt"
	"strings"
	"testing"

	"dualsim/internal/rdf"
	"dualsim/internal/sparql"
	"dualsim/internal/storage"
)

// skewedStore builds a store where predicate frequencies differ by two
// orders of magnitude: p0 has 200 triples over many subjects, p1 has 4.
func skewedStore(t *testing.T) *storage.Store {
	t.Helper()
	var ts []rdf.Triple
	for i := 0; i < 200; i++ {
		ts = append(ts, rdf.T(fmt.Sprintf("s%d", i), "p0", fmt.Sprintf("o%d", i%20)))
	}
	for i := 0; i < 4; i++ {
		ts = append(ts, rdf.T(fmt.Sprintf("s%d", i), "p1", "hub"))
	}
	st, err := storage.FromTriples(ts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func mustParse(t *testing.T, src string) *sparql.Query {
	t.Helper()
	q, err := sparql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func hasDecision(p *Plan, substr string) bool {
	for _, d := range p.Decisions {
		if strings.Contains(d, substr) {
			return true
		}
	}
	return false
}

// leftmostScan walks a left-deep join chain to its first scan.
func leftmostScan(t *testing.T, n Node) Scan {
	t.Helper()
	for {
		switch x := n.(type) {
		case Join:
			n = x.L
		case Filter:
			n = x.Input
		case Scan:
			return x
		default:
			t.Fatalf("unexpected node %T on the left spine", n)
		}
	}
}

func TestReorderSparsestFirst(t *testing.T) {
	st := skewedStore(t)
	// Written dense-first: the optimizer must start with the p1 scan.
	q := mustParse(t, `SELECT * WHERE { ?s <p0> ?o . ?s <p1> ?h . }`)
	p := Build(st, q, Options{})
	if !hasDecision(p, "reordered") {
		t.Fatalf("no reorder decision in %v", p.Decisions)
	}
	sc := leftmostScan(t, p.Root.(Join))
	if sc.TP.P.Const == nil || sc.TP.P.Const.Value != "p1" {
		t.Fatalf("first scan is %s, want the sparse p1 pattern", sc.TP)
	}
}

// scansByPredicate indexes the scans of a join tree by predicate IRI.
func scansByPredicate(n Node, out map[string]Scan) {
	switch x := n.(type) {
	case Join:
		scansByPredicate(x.L, out)
		scansByPredicate(x.R, out)
	case Scan:
		out[x.TP.P.Const.Value] = x
	}
}

func TestScanEstimatesReflectCardinality(t *testing.T) {
	st := skewedStore(t)
	q := mustParse(t, `SELECT * WHERE { ?s <p0> ?o . ?s <p1> ?h . }`)
	scans := make(map[string]Scan)
	scansByPredicate(Build(st, q, Options{}).Root, scans)
	dense, sparse := scans["p0"], scans["p1"]
	// The sparse pattern leads, unbound: its estimate is its triple count.
	// The dense one runs with ?s bound: 200 triples over 200 subjects.
	if sparse.Est != 4 || dense.Est != 1 {
		t.Fatalf("estimates: p0 %.1f (want 1 per bound subject), p1 %.1f (want its 4 triples)", dense.Est, sparse.Est)
	}
}

func TestFilterPushdownBelowJoin(t *testing.T) {
	st := skewedStore(t)
	q := mustParse(t, `SELECT * WHERE { ?s <p0> ?o . ?s <p1> ?h . FILTER(?h = <hub>) }`)
	p := Build(st, q, Options{})
	if !hasDecision(p, "filter: pushed") {
		t.Fatalf("no pushdown decision in %v", p.Decisions)
	}
	// The condition names only ?h, bound by the p1 scan: it must sit
	// below the join, not above it.
	j, ok := p.Root.(Join)
	if !ok {
		t.Fatalf("root = %T, want Join with the filter pushed below", p.Root)
	}
	foundBelow := false
	for _, side := range []Node{j.L, j.R} {
		if f, ok := side.(Filter); ok {
			if _, ok := f.Input.(Scan); ok {
				foundBelow = true
			}
		}
	}
	if !foundBelow {
		t.Fatalf("filter not pushed onto a scan side: %#v", p.Root)
	}
}

func TestFilterOnBothSidesStaysAboveJoin(t *testing.T) {
	st := skewedStore(t)
	// ?o and ?h are bound on different sides: the conjunct cannot move.
	q := mustParse(t, `SELECT * WHERE { ?s <p0> ?o . ?x <p1> ?h . FILTER(?o = ?h) }`)
	p := Build(st, q, Options{})
	if _, ok := p.Root.(Filter); !ok {
		t.Fatalf("root = %T, want the cross-side filter kept at the root", p.Root)
	}
}

func TestFilterNotPushedIntoOptionalSide(t *testing.T) {
	st := skewedStore(t)
	// ?h is only optionally bound: pushing the filter into the right
	// side of the left join would change which rows get padded.
	q := mustParse(t, `SELECT * WHERE { ?s <p0> ?o . OPTIONAL { ?s <p1> ?h . } FILTER(bound(?h)) }`)
	p := Build(st, q, Options{})
	if _, ok := p.Root.(Filter); !ok {
		t.Fatalf("root = %T, want the bound() filter above the left join", p.Root)
	}
}

func TestFilterPushedIntoBothUnionBranches(t *testing.T) {
	st := skewedStore(t)
	q := mustParse(t, `SELECT * WHERE { { ?s <p0> ?o . } UNION { ?s <p1> ?o . } FILTER(?o != <hub>) }`)
	p := Build(st, q, Options{})
	u, ok := p.Root.(Union)
	if !ok {
		t.Fatalf("root = %T, want Union with the filter distributed", p.Root)
	}
	for _, side := range []Node{u.L, u.R} {
		if _, ok := side.(Filter); !ok {
			t.Fatalf("union side %T lacks the pushed filter", side)
		}
	}
}

func TestLimitPushedIntoUnionBranches(t *testing.T) {
	st := skewedStore(t)
	q := mustParse(t, `SELECT * WHERE { { ?s <p0> ?o . } UNION { ?s <p1> ?o . } } LIMIT 5 OFFSET 2`)
	p := Build(st, q, Options{})
	if !hasDecision(p, "limit: pushed") {
		t.Fatalf("no limit pushdown decision in %v", p.Decisions)
	}
	root, ok := p.Root.(Limit)
	if !ok {
		t.Fatalf("root = %T, want the outer Limit", p.Root)
	}
	if root.Limit != 5 || root.Offset != 2 {
		t.Fatalf("outer limit = %d/%d, want 5/2", root.Limit, root.Offset)
	}
	u := root.Input.(Union)
	for _, side := range []Node{u.L, u.R} {
		l, ok := side.(Limit)
		if !ok {
			t.Fatalf("union side %T lacks the per-branch limit", side)
		}
		// Branches are bounded by limit+offset with no offset of their
		// own: skipping inside a branch could starve the merged window.
		if l.Limit != 7 || l.Offset != 0 {
			t.Fatalf("branch limit = %d/%d, want 7/0", l.Limit, l.Offset)
		}
	}
}

func TestUnitPlanForEmptyGroup(t *testing.T) {
	st := skewedStore(t)
	q := mustParse(t, `SELECT * WHERE { }`)
	p := Build(st, q, Options{})
	if _, ok := p.Root.(Unit); !ok {
		t.Fatalf("root = %T, want Unit", p.Root)
	}
}
