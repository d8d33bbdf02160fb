package engine

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dualsim/internal/proptest"
	"dualsim/internal/rdf"
	"dualsim/internal/sparql"
	"dualsim/internal/storage"
)

func mustStore(t *testing.T, ts []rdf.Triple) *storage.Store {
	t.Helper()
	st, err := storage.FromTriples(ts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// fig1a is the running-example database (see internal/core for the
// reconstruction notes).
func fig1a(t *testing.T) *storage.Store {
	return mustStore(t, []rdf.Triple{
		rdf.T("B._De_Palma", "directed", "Mission:_Impossible"),
		rdf.T("B._De_Palma", "awarded", "Oscar"),
		rdf.T("B._De_Palma", "born_in", "Newark"),
		rdf.T("B._De_Palma", "worked_with", "D._Koepp"),
		rdf.T("Mission:_Impossible", "genre", "Action"),
		rdf.T("Goldfinger", "genre", "Action"),
		rdf.T("G._Hamilton", "directed", "Goldfinger"),
		rdf.T("G._Hamilton", "born_in", "Paris"),
		rdf.T("G._Hamilton", "worked_with", "H._Saltzman"),
		rdf.T("H._Saltzman", "born_in", "Saint_John"),
		rdf.T("T._Young", "directed", "From_Russia_with_Love"),
		rdf.T("P.R._Hunt", "worked_with", "D._Koepp"),
		rdf.T("D._Koepp", "directed", "Mortdecai"),
		rdf.TL("Saint_John", "population", "70063"),
	})
}

// engines is the executor plus both oracles; fastEngines leaves out the
// exponential reference — the two that are checked against it.
func engines() []Engine {
	return []Engine{NewVolcano(), NewIndexNL(), NewReference()}
}

func fastEngines() []Engine {
	return []Engine{NewVolcano(), NewIndexNL()}
}

const queryX1 = `
SELECT * WHERE {
  ?director directed ?movie .
  ?director worked_with ?coworker . }`

const queryX2 = `
SELECT * WHERE {
  ?director directed ?movie .
  OPTIONAL { ?director worked_with ?coworker . } }`

// TestX1Results: (X1) has exactly the two matches named in the paper.
func TestX1Results(t *testing.T) {
	st := fig1a(t)
	q := sparql.MustParse(queryX1)
	for _, e := range engines() {
		res, err := e.Evaluate(context.Background(), st, q)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if res.Len() != 2 {
			t.Fatalf("%s: %d results, want 2\n%s", e.Name(), res.Len(), res.Format(st))
		}
		directors := bindings(t, st, res, "director")
		if !directors["B._De_Palma"] || !directors["G._Hamilton"] {
			t.Fatalf("%s: directors = %v", e.Name(), directors)
		}
	}
}

// TestX2Results: (X2) adds D. Koepp and T. Young via the optional pattern,
// exactly as the paper describes.
func TestX2Results(t *testing.T) {
	st := fig1a(t)
	q := sparql.MustParse(queryX2)
	for _, e := range engines() {
		res, err := e.Evaluate(context.Background(), st, q)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if res.Len() != 4 {
			t.Fatalf("%s: %d results, want 4\n%s", e.Name(), res.Len(), res.Format(st))
		}
		directors := bindings(t, st, res, "director")
		for _, d := range []string{"B._De_Palma", "G._Hamilton", "D._Koepp", "T._Young"} {
			if !directors[d] {
				t.Fatalf("%s: missing director %s", e.Name(), d)
			}
		}
		// The two optional-only rows leave ?coworker unbound.
		unbound := 0
		ci := res.VarIndex("coworker")
		for _, row := range res.Rows {
			if row[ci] == Unbound {
				unbound++
			}
		}
		if unbound != 2 {
			t.Fatalf("%s: %d unbound coworkers, want 2", e.Name(), unbound)
		}
	}
}

func bindings(t *testing.T, st *storage.Store, res *Result, v string) map[string]bool {
	t.Helper()
	i := res.VarIndex(v)
	if i < 0 {
		t.Fatalf("variable %s missing from result", v)
	}
	out := make(map[string]bool)
	for _, row := range res.Rows {
		if row[i] != Unbound {
			out[st.Term(row[i]).Value] = true
		}
	}
	return out
}

// TestX3NonWellDesigned evaluates the paper's (X3) on the Fig. 5(a)
// database; Figs. 5(b) and (c) show two of its matches, one of which uses
// the optional b-edge and one of which joins the a-edge with an unrelated
// c-edge (cross-product behaviour of non-well-designed patterns).
func TestX3NonWellDesigned(t *testing.T) {
	st := mustStore(t, []rdf.Triple{
		rdf.T("n1", "a", "n2"),
		rdf.T("n3", "a", "n2"), // second a-edge into n2 (Fig. 5(c) uses node 3)
		rdf.T("n4", "b", "n5"),
		rdf.T("n6", "d", "n5"),
		rdf.T("n4", "c", "n5"),
		rdf.T("n6", "d", "n2"),
	})
	// Fig. 5's database has edges 2-a->1? We keep the shape generic: what
	// matters is that v3's optional b-edge and mandatory c-edge interact.
	q := sparql.MustParse(`
SELECT * WHERE {
  { { ?v1 a ?v2 . } OPTIONAL { ?v3 b ?v2 . } }
  { ?v3 c ?v4 . } }`)
	if sparql.IsWellDesigned(q.Expr) {
		t.Fatal("X3 must be non-well-designed")
	}
	want, err := NewReference().Evaluate(context.Background(), st, q)
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 {
		t.Fatal("fixture should produce matches")
	}
	for _, e := range fastEngines() {
		got, err := e.Evaluate(context.Background(), st, q)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s diverges from reference:\ngot:\n%s\nwant:\n%s",
				e.Name(), got.Format(st), want.Format(st))
		}
	}
}

func TestEmptyBGP(t *testing.T) {
	st := fig1a(t)
	q := &sparql.Query{Expr: sparql.BGP{}}
	for _, e := range engines() {
		res, err := e.Evaluate(context.Background(), st, q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 1 || len(res.Vars) != 0 {
			t.Fatalf("%s: empty BGP = %v, want unit", e.Name(), res)
		}
	}
}

func TestConstantsOnlyPattern(t *testing.T) {
	st := fig1a(t)
	yes := sparql.MustParse(`SELECT * WHERE { <B._De_Palma> directed <Mission:_Impossible> }`)
	no := sparql.MustParse(`SELECT * WHERE { <B._De_Palma> directed Goldfinger }`)
	for _, e := range engines() {
		r1, err := e.Evaluate(context.Background(), st, yes)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Len() != 1 {
			t.Fatalf("%s: ask-true = %d rows", e.Name(), r1.Len())
		}
		r2, err := e.Evaluate(context.Background(), st, no)
		if err != nil {
			t.Fatal(err)
		}
		if r2.Len() != 0 {
			t.Fatalf("%s: ask-false = %d rows", e.Name(), r2.Len())
		}
	}
}

func TestUnknownConstantOrPredicate(t *testing.T) {
	st := fig1a(t)
	for _, src := range []string{
		`SELECT * WHERE { ?x directed Unknown_Movie }`,
		`SELECT * WHERE { ?x no_such_pred ?y }`,
	} {
		q := sparql.MustParse(src)
		for _, e := range engines() {
			res, err := e.Evaluate(context.Background(), st, q)
			if err != nil {
				t.Fatal(err)
			}
			if res.Len() != 0 {
				t.Fatalf("%s on %q: %d rows, want 0", e.Name(), src, res.Len())
			}
		}
	}
}

func TestVariablePredicateRejected(t *testing.T) {
	st := fig1a(t)
	q := sparql.MustParse(`SELECT * WHERE { ?s ?p ?o }`)
	for _, e := range engines() {
		if _, err := e.Evaluate(context.Background(), st, q); err == nil {
			t.Fatalf("%s accepted a variable predicate", e.Name())
		}
	}
}

func TestSameVarTwice(t *testing.T) {
	st := mustStore(t, []rdf.Triple{
		rdf.T("a", "knows", "a"),
		rdf.T("a", "knows", "b"),
		rdf.T("c", "knows", "c"),
	})
	q := sparql.MustParse(`SELECT * WHERE { ?x knows ?x }`)
	for _, e := range engines() {
		res, err := e.Evaluate(context.Background(), st, q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 2 {
			t.Fatalf("%s: self-loops = %d, want 2", e.Name(), res.Len())
		}
	}
}

func TestUnion(t *testing.T) {
	st := fig1a(t)
	q := sparql.MustParse(`SELECT * WHERE {
	  { ?x directed ?y } UNION { ?x worked_with ?y } }`)
	for _, e := range engines() {
		res, err := e.Evaluate(context.Background(), st, q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 7 { // 4 directed + 3 worked_with
			t.Fatalf("%s: union = %d rows, want 7\n%s", e.Name(), res.Len(), res.Format(st))
		}
	}
}

func TestCartesianProduct(t *testing.T) {
	st := mustStore(t, []rdf.Triple{
		rdf.T("a", "p", "b"),
		rdf.T("c", "p", "d"),
		rdf.T("e", "q", "f"),
	})
	q := sparql.MustParse(`SELECT * WHERE { ?x p ?y . ?v q ?w }`)
	for _, e := range engines() {
		res, err := e.Evaluate(context.Background(), st, q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 2 {
			t.Fatalf("%s: product = %d rows, want 2", e.Name(), res.Len())
		}
	}
}

// TestResultHelpers covers the Result utility surface.
func TestResultHelpers(t *testing.T) {
	r := NewResult("a", "b")
	r.Rows = append(r.Rows, []storage.NodeID{0, 1}, []storage.NodeID{0, 1}, []storage.NodeID{1, Unbound})
	r.Dedup()
	if r.Len() != 2 {
		t.Fatalf("Dedup left %d rows", r.Len())
	}
	p := r.Project([]string{"b", "a", "c"})
	if p.Rows[0][0] != 1 || p.Rows[0][1] != 0 || p.Rows[0][2] != Unbound {
		t.Fatalf("Project = %v", p.Rows[0])
	}
	if !r.Equal(r.Canonical()) {
		t.Fatal("Canonical changed semantics")
	}
	st := mustStore(t, []rdf.Triple{rdf.T("x", "p", "y")})
	if s := r.Format(st); !strings.Contains(s, "—") {
		t.Fatalf("Format lacks unbound marker: %q", s)
	}
}

// randomQuery draws a random expression over a small label space,
// including nested OPTIONAL, UNION and shared variables.
func randomQuery(r *rand.Rand, depth int, vars, preds int) sparql.Expr {
	if depth == 0 || r.Intn(3) == 0 {
		n := r.Intn(2) + 1
		bgp := make(sparql.BGP, n)
		for i := range bgp {
			bgp[i] = sparql.TriplePattern{
				S: randTerm(r, vars),
				P: sparql.C(fmt.Sprintf("p%d", r.Intn(preds))),
				O: randTerm(r, vars),
			}
		}
		return bgp
	}
	l := randomQuery(r, depth-1, vars, preds)
	rr := randomQuery(r, depth-1, vars, preds)
	switch r.Intn(3) {
	case 0:
		return sparql.And{L: l, R: rr}
	case 1:
		return sparql.Optional{L: l, R: rr}
	default:
		return sparql.Union{L: l, R: rr}
	}
}

func randTerm(r *rand.Rand, vars int) sparql.Term {
	if r.Intn(5) == 0 {
		return sparql.C(fmt.Sprintf("n%d", r.Intn(6)))
	}
	return sparql.V(fmt.Sprintf("v%d", r.Intn(vars)))
}

func randomTriples(r *rand.Rand, nodes, preds, edges int) []rdf.Triple {
	ts := make([]rdf.Triple, edges)
	for i := range ts {
		ts[i] = rdf.T(
			fmt.Sprintf("n%d", r.Intn(nodes)),
			fmt.Sprintf("p%d", r.Intn(preds)),
			fmt.Sprintf("n%d", r.Intn(nodes)))
	}
	return ts
}

// TestPropertyEnginesMatchReference is the central engine invariant: the
// executor and the IndexNL oracle agree with the executable denotational
// semantics on random queries with AND, OPTIONAL, UNION, constants and shared
// variables.
func TestPropertyEnginesMatchReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		st, err := storage.FromTriples(randomTriples(r, 6, 2, 10))
		if err != nil {
			return false
		}
		q := &sparql.Query{Expr: randomQuery(r, 2, 3, 2)}
		want, err := NewReference().Evaluate(context.Background(), st, q)
		if err != nil {
			return false
		}
		for _, e := range fastEngines() {
			got, err := e.Evaluate(context.Background(), st, q)
			if err != nil {
				t.Logf("seed %d: %s error: %v", seed, e.Name(), err)
				return false
			}
			if !got.Equal(want) {
				t.Logf("seed %d query %s:\n%s got %d rows, reference %d rows",
					seed, q, e.Name(), got.Len(), want.Len())
				return false
			}
		}
		return true
	}
	proptest.Check(t, f, 300, regressionSeeds)
}

// regressionSeeds are the counterexamples the engine properties have
// found so far; proptest.Check replays them before exploring.
var regressionSeeds = []int64{
	9198463668290011579, // zero-column left input of a left join (zerowidth_test.go)
}
