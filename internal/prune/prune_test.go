package prune

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"dualsim/internal/core"
	"dualsim/internal/engine"
	"dualsim/internal/proptest"
	"dualsim/internal/rdf"
	"dualsim/internal/sparql"
	"dualsim/internal/storage"
)

func fig1a(t *testing.T) *storage.Store {
	t.Helper()
	st, err := storage.FromTriples([]rdf.Triple{
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
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func mustPrune(t *testing.T, st *storage.Store, src string) (*Pruning, *core.QueryRelation) {
	t.Helper()
	p, rel, err := PruneQuery(st, sparql.MustParse(src), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return p, rel
}

const queryX1 = `
SELECT * WHERE {
  ?director directed ?movie .
  ?director worked_with ?coworker . }`

const queryX2 = `
SELECT * WHERE {
  ?director directed ?movie .
  OPTIONAL { ?director worked_with ?coworker . } }`

// TestX1Pruning: the (X1) dual simulation keeps exactly the 4 triples of
// the two result subgraphs (relation (2) projected onto triples).
func TestX1Pruning(t *testing.T) {
	st := fig1a(t)
	p, _ := mustPrune(t, st, queryX1)
	if p.Kept != 4 {
		t.Fatalf("kept = %d, want 4", p.Kept)
	}
	if p.Total != st.NumTriples() {
		t.Fatalf("total = %d", p.Total)
	}
	if p.Ratio() < 0.7 {
		t.Fatalf("ratio = %f", p.Ratio())
	}
	// The pruned store contains the bold subgraphs of Fig. 1(a).
	ps := p.Store()
	if ps.NumTriples() != 4 {
		t.Fatalf("pruned store has %d triples", ps.NumTriples())
	}
	directed, _ := ps.PredIDOf("directed")
	if ps.PredCount(directed) != 2 {
		t.Fatalf("directed kept = %d, want 2", ps.PredCount(directed))
	}
}

// TestX2Pruning: the optional extension additionally keeps the directed
// triples of D. Koepp and T. Young (the semi-thick subgraphs), but only
// the two anchored worked_with triples.
func TestX2Pruning(t *testing.T) {
	st := fig1a(t)
	p, _ := mustPrune(t, st, queryX2)
	if p.Kept != 6 {
		t.Fatalf("kept = %d, want 6 (4 directed + 2 worked_with)", p.Kept)
	}
	ps := p.Store()
	directed, _ := ps.PredIDOf("directed")
	ww, _ := ps.PredIDOf("worked_with")
	if ps.PredCount(directed) != 4 || ps.PredCount(ww) != 2 {
		t.Fatalf("directed/worked_with = %d/%d, want 4/2",
			ps.PredCount(directed), ps.PredCount(ww))
	}
}

// TestEmptyQueryPrunesEverything: queries with an unsatisfiable mandatory
// core leave 0 triples — the paper's D1/B4/B15 behaviour.
func TestEmptyQueryPrunesEverything(t *testing.T) {
	st := fig1a(t)
	p, rel := mustPrune(t, st, `SELECT * WHERE { ?x no_such_pred ?y . ?x directed ?z }`)
	if !rel.Empty() {
		t.Fatal("relation should be empty")
	}
	if p.Kept != 0 {
		t.Fatalf("kept = %d, want 0", p.Kept)
	}
	if p.Ratio() != 1 {
		t.Fatalf("ratio = %f, want 1", p.Ratio())
	}
}

// TestRequiredTriples: (X1) has two matches touching 4 distinct triples.
func TestRequiredTriples(t *testing.T) {
	st := fig1a(t)
	q := sparql.MustParse(queryX1)
	got, err := RequiredCount(context.Background(), st, q, engine.NewIndexNL())
	if err != nil {
		t.Fatal(err)
	}
	if got != 4 {
		t.Fatalf("required = %d, want 4", got)
	}
	// Required ⊆ kept must hold (Theorem 1 projected onto triples).
	p, _ := mustPrune(t, st, queryX1)
	if p.Kept < 4 {
		t.Fatal("kept fewer than required")
	}
}

// TestRequiredTriplesOptional: (X2)'s four matches touch 6 triples; the
// optional parts of unmatched directors contribute nothing.
func TestRequiredTriplesOptional(t *testing.T) {
	st := fig1a(t)
	q := sparql.MustParse(queryX2)
	got, err := RequiredCount(context.Background(), st, q, engine.NewIndexNL())
	if err != nil {
		t.Fatal(err)
	}
	if got != 6 {
		t.Fatalf("required = %d, want 6", got)
	}
}

// prunedOutcome evaluates q on the full and on the pruned store and
// reports the two invariants the paper's Theorem 2 supports:
//
//   - sound: the full result projected onto mand(Q) is contained in the
//     pruned result's projection (no match's mandatory core is lost);
//   - exact: the result sets coincide — guaranteed for well-designed
//     patterns. Non-well-designed nested optionals may legitimately see
//     their optional extensions differ on the pruned store: pruning can
//     remove the cross-product "filter" structure that prevented an
//     optional part from joining (see
//     TestNonWellDesignedPromotionNuance).
func prunedOutcome(t testing.TB, st *storage.Store, q *sparql.Query) (sound, exact bool) {
	p, _, err := PruneQuery(st, q, core.Config{})
	if err != nil {
		t.Fatalf("prune: %v", err)
	}
	eng := engine.NewIndexNL()
	full, err := eng.Evaluate(context.Background(), st, q)
	if err != nil {
		t.Fatalf("full eval: %v", err)
	}
	pruned, err := eng.Evaluate(context.Background(), p.Store(), q)
	if err != nil {
		t.Fatalf("pruned eval: %v", err)
	}
	mand := sparql.Mand(q.Expr)
	var mandVars []string
	for v := range mand {
		mandVars = append(mandVars, v)
	}
	return projectionSubset(full, pruned, mandVars), full.Equal(pruned)
}

// projectionSubset reports whether a's rows projected onto vars all occur
// among b's projected rows.
func projectionSubset(a, b *engine.Result, vars []string) bool {
	pa := a.Project(vars)
	pb := b.Project(vars)
	seen := make(map[string]bool, pb.Len())
	for _, row := range pb.Rows {
		seen[fmt.Sprint(row)] = true
	}
	for _, row := range pa.Rows {
		if !seen[fmt.Sprint(row)] {
			return false
		}
	}
	return true
}

func TestPrunedEvaluationExactOnPaperQueries(t *testing.T) {
	st := fig1a(t)
	for _, src := range []string{
		queryX1,
		queryX2,
		`SELECT * WHERE { ?c born_in ?p . ?p population ?n }`,
		`SELECT * WHERE { ?m genre <Action> OPTIONAL { ?d directed ?m } }`,
		`SELECT * WHERE { { ?x directed ?y } UNION { ?x worked_with ?y } }`,
		`SELECT * WHERE { { ?d directed ?m OPTIONAL { ?d born_in ?c } } { ?d worked_with ?w } }`,
		`SELECT * WHERE { OPTIONAL { ?d awarded ?a } }`,
	} {
		sound, exact := prunedOutcome(t, st, sparql.MustParse(src))
		if !sound || !exact {
			t.Fatalf("pruned result differs for %s (sound=%v exact=%v)", src, sound, exact)
		}
	}
}

// randomQuery mirrors the engine test generator (AND/OPTIONAL/UNION with
// shared variables and constants, constant predicates only).
func randomQuery(r *rand.Rand, depth, vars, preds int) sparql.Expr {
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
	switch r.Intn(4) {
	case 0, 1:
		return sparql.And{L: l, R: rr}
	case 2:
		return sparql.Optional{L: l, R: rr}
	default:
		return sparql.Union{L: l, R: rr}
	}
}

func randTerm(r *rand.Rand, vars int) sparql.Term {
	if r.Intn(6) == 0 {
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

// regressionSeeds are the counterexamples the pruning properties have
// found so far (none yet); proptest.Check replays them before exploring.
var regressionSeeds []int64

// TestPropertyPrunedEvaluationSound is the repository's central soundness
// invariant (Theorem 2 put to work): for random data and random queries
// over BGP/AND/OPTIONAL/UNION, every full-store mapping's mandatory core
// survives on the pruned store; for well-designed queries the result
// sets are identical.
func TestPropertyPrunedEvaluationSound(t *testing.T) {
	exactChecked := 0
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		st, err := storage.FromTriples(randomTriples(r, 8, 3, 20))
		if err != nil {
			return false
		}
		q := &sparql.Query{Expr: randomQuery(r, 2, 4, 3)}
		sound, exact := prunedOutcome(t, st, q)
		if !sound {
			t.Logf("seed %d UNSOUND query %s", seed, q)
			return false
		}
		if sparql.IsWellDesigned(q.Expr) && !sparql.HasUnion(q.Expr) {
			exactChecked++
			if !exact {
				t.Logf("seed %d INEXACT well-designed query %s", seed, q)
				return false
			}
		}
		return true
	}
	proptest.Check(t, f, 400, regressionSeeds)
	if exactChecked < 50 {
		t.Fatalf("only %d well-designed exactness checks; generator drifted", exactChecked)
	}
}

// TestPropertyRequiredSubsetOfKept: every triple of every match survives
// pruning (the triple-level reading of soundness).
func TestPropertyRequiredSubsetOfKept(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		st, err := storage.FromTriples(randomTriples(r, 8, 3, 20))
		if err != nil {
			return false
		}
		q := &sparql.Query{Expr: randomQuery(r, 2, 4, 3)}
		p, _, err := PruneQuery(st, q, core.Config{})
		if err != nil {
			t.Fatalf("prune: %v", err)
		}
		refs, err := Required(context.Background(), st, q, engine.NewIndexNL())
		if err != nil {
			t.Fatalf("required: %v", err)
		}
		ps := p.Store()
		for _, ref := range refs {
			if !ps.HasTriple(ref.S, ref.P, ref.O) {
				t.Logf("seed %d: required triple %v missing after pruning, query %s",
					seed, ref, q)
				return false
			}
		}
		return p.Kept >= len(refs)
	}
	proptest.Check(t, f, 300, regressionSeeds)
}

// TestRequiredPromotedRowCoincidence is a regression test: a promoted
// row (optional part unmatched) binds ?v1 through the mandatory part,
// and ?v1 coincidentally satisfies ONE of the two BGPs of the optional
// part. That triple is not required — the optional side as a whole did
// not match (its second BGP demands a self-loop ?v1 lacks).
func TestRequiredPromotedRowCoincidence(t *testing.T) {
	st, err := storage.FromTriples([]rdf.Triple{
		rdf.T("s", "p1", "a"),
		rdf.T("a", "p0", "k"),
	})
	if err != nil {
		t.Fatal(err)
	}
	q := sparql.MustParse(`SELECT * WHERE {
	  ?v2 <p1> ?v1
	  OPTIONAL { { ?v1 <p0> <k> } { ?v1 <p1> ?v1 } } }`)
	refs, err := Required(context.Background(), st, q, engine.NewIndexNL())
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 1 {
		t.Fatalf("required = %d triples, want only (s,p1,a): %v", len(refs), refs)
	}
	p1, _ := st.PredIDOf("p1")
	if refs[0].P != p1 {
		t.Fatalf("wrong required triple: %v", refs[0])
	}
	// And the matched-optional variant IS counted: add the self-loop.
	st2, err := storage.FromTriples([]rdf.Triple{
		rdf.T("s", "p1", "a"),
		rdf.T("a", "p0", "k"),
		rdf.T("a", "p1", "a"),
	})
	if err != nil {
		t.Fatal(err)
	}
	refs2, err := Required(context.Background(), st2, q, engine.NewIndexNL())
	if err != nil {
		t.Fatal(err)
	}
	if len(refs2) != 3 {
		t.Fatalf("required = %d distinct triples, want all 3: %v", len(refs2), refs2)
	}
}

// TestNonWellDesignedPromotionNuance pins the subtle behaviour the
// random property test uncovered: in a NON-well-designed nested optional,
// an inner optional pattern over otherwise-unconnected variables acts as
// a cross-product filter. Pruning (soundly, per Definition 3) removes
// that pattern's triples, so on the pruned store the formerly blocked
// optional part joins, and the promoted row comes back *extended*. The
// paper's binding-containment soundness holds; row-level result equality
// does not — this is exactly why the paper formulates soundness at the
// level of variable bindings.
func TestNonWellDesignedPromotionNuance(t *testing.T) {
	st, err := storage.FromTriples([]rdf.Triple{
		rdf.T("c", "p2", "n3"), // L: v0 = c
		rdf.T("a", "p0", "b"),  // L: v1 = a, v3 = b
		rdf.T("a", "p2", "d"),  // B1: v1 = a, v2 = d
		rdf.T("x", "p1", "y"),  // B2: (v3, v0) = (x, y) ≠ (b, c)
	})
	if err != nil {
		t.Fatal(err)
	}
	q := sparql.MustParse(`SELECT * WHERE {
	  { ?v0 <p2> <n3> . ?v1 <p0> ?v3 . }
	  OPTIONAL { { ?v1 <p2> ?v2 . } OPTIONAL { ?v3 <p1> ?v0 . } } }`)
	if sparql.IsWellDesigned(q.Expr) {
		t.Fatal("fixture must be non-well-designed")
	}
	eng := engine.NewIndexNL()
	full, err := eng.Evaluate(context.Background(), st, q)
	if err != nil {
		t.Fatal(err)
	}
	// On the full store, B2's (x,p1,y) is incompatible with v3=b, v0=c,
	// and since B1 × B2 has no compatible row, v2 stays unbound.
	if full.Len() != 1 || full.Row(0)[full.VarIndex("v2")] != engine.Unbound {
		t.Fatalf("unexpected full result:\n%s", full.Format(st))
	}
	p, _, err := PruneQuery(st, q, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := eng.Evaluate(context.Background(), p.Store(), q)
	if err != nil {
		t.Fatal(err)
	}
	// On the pruned store the p1 filter is gone and v2 binds to d.
	if pruned.Len() != 1 || pruned.Row(0)[pruned.VarIndex("v2")] == engine.Unbound {
		t.Fatalf("unexpected pruned result:\n%s", pruned.Format(st))
	}
	// The paper's soundness: mandatory-core bindings are preserved.
	if !projectionSubset(full, pruned, []string{"v0", "v1", "v3"}) {
		t.Fatal("mandatory core lost")
	}
	// And Theorem 1 at the binding level: every full binding is in χS.
	rel, err := core.QueryDualSimulation(st, q, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for vi, v := range full.Vars {
		set := rel.VarSet(v)
		for _, row := range full.Rows {
			if row[vi] != engine.Unbound && !set.Get(int(row[vi])) {
				t.Fatalf("binding %s=%d escapes χS", v, row[vi])
			}
		}
	}
}

// TestPropertyPairFlagsCountCompleteSides: a pair is flagged AllO iff
// its O holds every object of every subject in its S, and AllS iff its S
// holds every subject of every object in its O — whatever the query's
// shape. Both values of each flag occur often enough to mean something.
func TestPropertyPairFlagsCountCompleteSides(t *testing.T) {
	var flagged, unflagged int
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		st, err := storage.FromTriples(randomTriples(r, 8, 3, 20))
		if err != nil {
			return false
		}
		q := &sparql.Query{Expr: randomQuery(r, 2, 4, 3)}
		p, _, err := PruneQuery(st, q, core.Config{})
		if err != nil {
			t.Fatalf("prune: %v", err)
		}
		for pid, pf := range p.Filter() {
			if pf == nil {
				continue
			}
			subjects, objects := st.PSO(storage.PredID(pid))
			for k, pair := range pf.Pairs {
				allS, allO := true, true
				for i := range subjects {
					s, o := int(subjects[i]), int(objects[i])
					allO = allO && (!pair.S.Get(s) || pair.O.Get(o))
					allS = allS && (!pair.O.Get(o) || pair.S.Get(s))
				}
				if pair.AllS != allS || pair.AllO != allO {
					t.Logf("seed %d query %s: pair %d of predicate %d flagged AllS %v, AllO %v; its sides are complete: S %v, O %v", seed, q, k, pid, pair.AllS, pair.AllO, allS, allO)
					return false
				}
				for _, all := range []bool{allS, allO} {
					if all {
						flagged++
					} else {
						unflagged++
					}
				}
			}
		}
		return true
	}
	proptest.Check(t, f, 400, regressionSeeds)
	t.Logf("%d complete and %d incomplete sides", flagged, unflagged)
	if flagged < 300 || unflagged < 100 {
		t.Fatalf("%d complete and %d incomplete sides; generator drifted", flagged, unflagged)
	}
}
