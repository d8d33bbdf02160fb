package queries

import (
	"context"
	"testing"

	"dualsim/internal/core"
	"dualsim/internal/datagen"
	"dualsim/internal/engine"
	"dualsim/internal/prune"
	"dualsim/internal/sparql"
	"dualsim/internal/storage"
)

func TestAllSpecsParse(t *testing.T) {
	specs := All()
	if len(specs) != 6+6+20 {
		t.Fatalf("specs = %d, want 32", len(specs))
	}
	seen := make(map[string]bool)
	for _, s := range specs {
		if seen[s.ID] {
			t.Fatalf("duplicate id %s", s.ID)
		}
		seen[s.ID] = true
		q, err := sparql.Parse(s.Text)
		if err != nil {
			t.Fatalf("%s does not parse: %v", s.ID, err)
		}
		if sparql.HasUnion(q.Expr) {
			t.Fatalf("%s uses UNION; benchmark sets are union-free", s.ID)
		}
		if s.Dataset != "lubm" && s.Dataset != "kg" {
			t.Fatalf("%s has unknown dataset %q", s.ID, s.Dataset)
		}
	}
}

func TestByID(t *testing.T) {
	s, err := ByID("L1")
	if err != nil || s.ID != "L1" {
		t.Fatalf("ByID(L1) = %v, %v", s, err)
	}
	if _, err := ByID("Z9"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestDocumentedShapes(t *testing.T) {
	for _, s := range All() {
		q := s.Query()
		if got := hasOptional(q.Expr); got != s.HasOptional {
			t.Fatalf("%s: HasOptional = %v, spec says %v", s.ID, got, s.HasOptional)
		}
		corePat, err := ToPattern(MandatoryCore(q.Expr))
		if err != nil {
			t.Fatalf("%s: %v", s.ID, err)
		}
		if got := corePat.IsCyclic(); got != s.Cyclic {
			t.Fatalf("%s: Cyclic = %v, spec says %v", s.ID, got, s.Cyclic)
		}
	}
}

func hasOptional(e sparql.Expr) bool {
	switch x := e.(type) {
	case sparql.Optional:
		return true
	case sparql.And:
		return hasOptional(x.L) || hasOptional(x.R)
	case sparql.Union:
		return hasOptional(x.L) || hasOptional(x.R)
	}
	return false
}

// TestL0L1MatchFig6 pins the mandatory cores of L0 and L1 to the shapes
// of the paper's Fig. 6.
func TestL0L1MatchFig6(t *testing.T) {
	l0, _ := ByID("L0")
	core0, err := ToPattern(MandatoryCore(l0.Query().Expr))
	if err != nil {
		t.Fatal(err)
	}
	if core0.NumVars() != 3 || core0.NumEdges() != 3 || !core0.IsCyclic() {
		t.Fatalf("L0 core: %d vars, %d edges, cyclic=%v; want the Fig. 6(a) triangle",
			core0.NumVars(), core0.NumEdges(), core0.IsCyclic())
	}

	l1, _ := ByID("L1")
	core1, err := ToPattern(MandatoryCore(l1.Query().Expr))
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 6(b): 5 variables + 1 constant (ub:Publication), 7 edges.
	if core1.NumVars() != 6 || core1.NumEdges() != 7 || !core1.IsCyclic() {
		t.Fatalf("L1 core: %d vars, %d edges, cyclic=%v; want Fig. 6(b)",
			core1.NumVars(), core1.NumEdges(), core1.IsCyclic())
	}
	hasConst := false
	for _, v := range core1.Vars() {
		if v.Const != nil && v.Const.Value == "ub:Publication" {
			hasConst = true
		}
	}
	if !hasConst {
		t.Fatal("L1 core misses the ub:Publication constant")
	}
}

func TestStripOptionalAndMandatoryCore(t *testing.T) {
	q := sparql.MustParse(QueryX2)
	stripped := StripOptional(q.Expr)
	if hasOptional(stripped) {
		t.Fatal("StripOptional left an OPTIONAL")
	}
	if len(sparql.Triples(stripped)) != 2 {
		t.Fatal("StripOptional lost triples")
	}
	coreE := MandatoryCore(q.Expr)
	if len(sparql.Triples(coreE)) != 1 {
		t.Fatal("MandatoryCore should keep only the directed triple")
	}
}

func TestFig1aFixture(t *testing.T) {
	st, err := Fig1aStore()
	if err != nil {
		t.Fatal(err)
	}
	if st.NumTriples() != 20 {
		t.Fatalf("Fig1a = %d triples, want 20", st.NumTriples())
	}
	res, err := engine.NewVolcano().Evaluate(context.Background(), st, sparql.MustParse(QueryX1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("X1 on Fig1a = %d results, want 2", res.Len())
	}
	res2, err := engine.NewVolcano().Evaluate(context.Background(), st, sparql.MustParse(QueryX2))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Len() != 4 {
		t.Fatalf("X2 on Fig1a = %d results, want 4", res2.Len())
	}
}

// testStores builds small instances of both datasets once.
func testStores(t *testing.T) map[string]*storage.Store {
	t.Helper()
	lubm, err := datagen.LUBMStore(datagen.DefaultLUBM(3, 42))
	if err != nil {
		t.Fatal(err)
	}
	kg, err := datagen.KGStore(datagen.DefaultKG(1, 42))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*storage.Store{"lubm": lubm, "kg": kg}
}

// TestSpecsAgainstGenerators evaluates every benchmark query on its
// dataset and asserts the documented result-shape properties: declared-
// empty queries are empty, all others are non-empty, and pruning is both
// sound and effective.
func TestSpecsAgainstGenerators(t *testing.T) {
	stores := testStores(t)
	eng := engine.NewVolcano()
	for _, s := range All() {
		st := stores[s.Dataset]
		q := s.Query()
		res, err := eng.Evaluate(context.Background(), st, q)
		if err != nil {
			t.Fatalf("%s: %v", s.ID, err)
		}
		if s.ExpectEmpty && res.Len() != 0 {
			t.Fatalf("%s: expected empty, got %d rows", s.ID, res.Len())
		}
		if !s.ExpectEmpty && res.Len() == 0 {
			t.Fatalf("%s: expected non-empty result on the generated dataset", s.ID)
		}

		p, rel, err := prune.PruneQuery(st, q, core.Config{})
		if err != nil {
			t.Fatalf("%s: prune: %v", s.ID, err)
		}
		if s.ExpectEmpty {
			if !rel.Empty() && p.Kept != 0 {
				// Dual simulation may retain candidates even for empty
				// results (Fig. 4); but for these specific queries the
				// label structure rules that out.
				t.Fatalf("%s: empty query kept %d triples", s.ID, p.Kept)
			}
			continue
		}
		// Evaluating on the pruned store must preserve all results.
		pres, err := eng.Evaluate(context.Background(), p.Store(), q)
		if err != nil {
			t.Fatalf("%s: pruned eval: %v", s.ID, err)
		}
		if sparql.IsWellDesigned(q.Expr) && !pres.Equal(res) {
			t.Fatalf("%s: pruned result differs (%d vs %d rows)", s.ID, pres.Len(), res.Len())
		}
	}
}

func TestToPatternRejectsVariablePredicate(t *testing.T) {
	if _, err := ToPattern(sparql.MustParse(`SELECT * WHERE { ?s ?p ?o }`).Expr); err == nil {
		t.Fatal("variable predicate accepted")
	}
}

func TestToPatternSharesConstants(t *testing.T) {
	pat, err := ToPattern(sparql.MustParse(
		`SELECT * WHERE { ?a <p> <k> . ?b <q> <k> }`).Expr)
	if err != nil {
		t.Fatal(err)
	}
	// a, b and one shared constant node for <k>.
	if pat.NumVars() != 3 {
		t.Fatalf("vars = %d, want 3 (constant shared)", pat.NumVars())
	}
}

func TestRewritersOnUnion(t *testing.T) {
	q := sparql.MustParse(`SELECT * WHERE {
	  { ?a <p> ?b OPTIONAL { ?b <q> ?c } } UNION { ?a <r> ?b } }`)
	stripped := StripOptional(q.Expr)
	if hasOptional(stripped) {
		t.Fatal("OPTIONAL survived under UNION")
	}
	coreE := MandatoryCore(q.Expr)
	if got := len(sparql.Triples(coreE)); got != 2 {
		t.Fatalf("core triples = %d, want 2", got)
	}
	if !sparql.HasUnion(coreE) {
		t.Fatal("UNION lost by MandatoryCore")
	}
}

// TestTable2Preparation: stripping OPTIONAL from every B query yields a
// plain BGP convertible for the baseline algorithms.
func TestTable2Preparation(t *testing.T) {
	for _, s := range BenchmarkQueries() {
		stripped := StripOptional(s.Query().Expr)
		pat, err := ToPattern(stripped)
		if err != nil {
			t.Fatalf("%s: %v", s.ID, err)
		}
		if pat.NumEdges() != len(sparql.Triples(s.Query().Expr)) {
			t.Fatalf("%s: edge count mismatch", s.ID)
		}
	}
}
