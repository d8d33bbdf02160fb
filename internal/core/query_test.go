package core

import (
	"strings"
	"testing"

	"dualsim/internal/rdf"
	"dualsim/internal/sparql"
	"dualsim/internal/storage"
)

// branchOf builds and returns the single branch of a union-free query
// against a minimal store (the SOI structure does not depend on data).
func branchOf(t *testing.T, src string, st *storage.Store) *Branch {
	t.Helper()
	plan, err := BuildQueryPlan(st, sparql.MustParse(src), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Branches) != 1 {
		t.Fatalf("branches = %d, want 1", len(plan.Branches))
	}
	return plan.Branches[0]
}

func (b *Branch) varNamed(name string) (int, bool) {
	for i, v := range b.Vars {
		if v.Name == name {
			return i, true
		}
	}
	return -1, false
}

// findCopyTarget returns the copy-inequality target name of the (unique)
// fresh copy of orig, or "".
func (b *Branch) copyOf(fresh string) string {
	i, ok := b.varNamed(fresh)
	if !ok {
		return ""
	}
	for _, c := range b.Copies {
		if c[0] == i {
			return b.Vars[c[1]].Name
		}
	}
	return ""
}

// freshNamesOf lists the renamed copies of an original variable.
func (b *Branch) freshNamesOf(orig string) []string {
	var out []string
	for _, v := range b.Vars {
		if v.Orig == orig && v.Name != orig {
			out = append(out, v.Name)
		}
	}
	return out
}

// TestX2SOIStructure reproduces inequality (14): ?director gets a
// mandatory and an optional occurrence with directorₒ ≤ directorₘ.
func TestX2SOIStructure(t *testing.T) {
	st := fig1a(t)
	b := branchOf(t, `
SELECT * WHERE {
  ?director directed ?movie .
  OPTIONAL { ?director worked_with ?coworker . } }`, st)

	if i, ok := b.varNamed("director"); !ok || !b.Vars[i].Mandatory {
		t.Fatal("mandatory director missing")
	}
	fresh := b.freshNamesOf("director")
	if len(fresh) != 1 {
		t.Fatalf("director copies = %v, want one", fresh)
	}
	if got := b.copyOf(fresh[0]); got != "director" {
		t.Fatalf("copy target = %q, want director", got)
	}
	// coworker stays unrenamed but optional.
	if i, ok := b.varNamed("coworker"); !ok || b.Vars[i].Mandatory {
		t.Fatal("coworker should be optional and unrenamed")
	}
	// movie stays mandatory.
	if i, ok := b.varNamed("movie"); !ok || !b.Vars[i].Mandatory {
		t.Fatal("movie should be mandatory")
	}
	// Two pattern edges, one copy.
	if len(b.Edges) != 2 || len(b.Copies) != 1 {
		t.Fatalf("edges/copies = %d/%d", len(b.Edges), len(b.Copies))
	}
}

// TestX3SOIStructure reproduces the Sect. 4.4 discussion of (X3): both v2
// (optional vs. its mandatory occurrence in the same optional pattern)
// and v3 (optional occurrence vs. mandatory occurrence in the sibling
// conjunct, Lemma 5) get renamed copies with copy inequalities.
func TestX3SOIStructure(t *testing.T) {
	st := fig1a(t)
	b := branchOf(t, `
SELECT * WHERE {
  { { ?v1 a ?v2 . } OPTIONAL { ?v3 b ?v2 . } }
  { ?v3 c ?v4 . } }`, st)

	for _, orig := range []string{"v1", "v2", "v3", "v4"} {
		if i, ok := b.varNamed(orig); !ok || !b.Vars[i].Mandatory {
			t.Fatalf("%s should exist as mandatory", orig)
		}
	}
	for _, orig := range []string{"v2", "v3"} {
		fresh := b.freshNamesOf(orig)
		if len(fresh) != 1 {
			t.Fatalf("%s copies = %v, want one", orig, fresh)
		}
		if got := b.copyOf(fresh[0]); got != orig {
			t.Fatalf("%s copy target = %q", orig, got)
		}
		if i, _ := b.varNamed(fresh[0]); b.Vars[i].Mandatory {
			t.Fatalf("%s copy should be optional", orig)
		}
	}
	if len(b.Edges) != 3 || len(b.Copies) != 2 {
		t.Fatalf("edges/copies = %d/%d, want 3/2", len(b.Edges), len(b.Copies))
	}
}

// TestNestedOptionalChainP reproduces the Sect. 4.4 example
// P = (P1 OPTIONAL P2) OPTIONAL P3: both optional occurrences of y link
// directly to the mandatory y of P1 (y_P2 ≤ y, y_P3 ≤ y), while x — which
// never occurs mandatorily — is split without interdependencies.
func TestNestedOptionalChainP(t *testing.T) {
	st := fig1a(t)
	b := branchOf(t, `
SELECT * WHERE {
  ?y p1 ?z1
  OPTIONAL { ?y p2 ?x }
  OPTIONAL { ?y p3 ?x } }`, st)

	yCopies := b.freshNamesOf("y")
	if len(yCopies) != 2 {
		t.Fatalf("y copies = %v, want two", yCopies)
	}
	for _, f := range yCopies {
		if got := b.copyOf(f); got != "y" {
			t.Fatalf("copy of %s points to %q, want y", f, got)
		}
	}
	// x: one occurrence keeps the name, the second is renamed with NO
	// copy inequality (the "no interdependency" case).
	xCopies := b.freshNamesOf("x")
	if len(xCopies) != 1 {
		t.Fatalf("x copies = %v, want one", xCopies)
	}
	if got := b.copyOf(xCopies[0]); got != "" {
		t.Fatalf("x copy should have no target, got %q", got)
	}
	if len(b.Copies) != 2 {
		t.Fatalf("copies = %d, want 2 (only the y links)", len(b.Copies))
	}
}

// TestNestedOptionalChainR reproduces R = R1 OPTIONAL (R2 OPTIONAL R3):
// the copies chain syntactically-closest, z_R3 ≤ z_R2 ≤ z.
func TestNestedOptionalChainR(t *testing.T) {
	st := fig1a(t)
	b := branchOf(t, `
SELECT * WHERE {
  ?z p1 ?u
  OPTIONAL { ?z p2 ?v OPTIONAL { ?z p3 ?w } } }`, st)

	zCopies := b.freshNamesOf("z")
	if len(zCopies) != 2 {
		t.Fatalf("z copies = %v, want two", zCopies)
	}
	// One copy links to z, the other links to that copy: a chain.
	targets := map[string]string{}
	for _, f := range zCopies {
		targets[f] = b.copyOf(f)
	}
	var mid string
	for f, tgt := range targets {
		if tgt == "z" {
			mid = f
		}
	}
	if mid == "" {
		t.Fatalf("no copy links to z: %v", targets)
	}
	chained := false
	for f, tgt := range targets {
		if f != mid && tgt == mid {
			chained = true
		}
	}
	if !chained {
		t.Fatalf("copies do not chain: %v", targets)
	}
}

// TestUnionPlanBranches: a UNION query yields one sound SOI per branch.
func TestUnionPlanBranches(t *testing.T) {
	st := fig1a(t)
	plan, err := BuildQueryPlan(st, sparql.MustParse(`
SELECT * WHERE { { ?x directed ?y } UNION { ?x worked_with ?y } }`), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Branches) != 2 {
		t.Fatalf("branches = %d", len(plan.Branches))
	}
	rel := plan.Solve(Config{})
	// x candidates: union of directors and worked_with subjects.
	x := rel.VarSet("x")
	for _, n := range []string{"B._De_Palma", "G._Hamilton", "T._Young", "D._Koepp", "P.R._Hunt"} {
		id, _ := st.TermID(mustIRI(n))
		if !x.Get(int(id)) {
			t.Fatalf("%s missing from union x", n)
		}
	}
}

// TestVariablePredicateRejected: the SOI construction requires constant
// predicates.
func TestVariablePredicateRejected(t *testing.T) {
	st := fig1a(t)
	_, err := BuildQueryPlan(st, sparql.MustParse(`SELECT * WHERE { ?s ?p ?o }`), Config{})
	if err == nil || !strings.Contains(err.Error(), "predicate") {
		t.Fatalf("err = %v", err)
	}
}

// TestX2Solution checks the solved candidate sets of (X2) on Fig. 1(a):
// the mandatory director set grows to the four directed-subjects, while
// the optional copy stays at the (X1) pair.
func TestX2Solution(t *testing.T) {
	st := fig1a(t)
	rel, err := QueryDualSimulation(st, sparql.MustParse(`
SELECT * WHERE {
  ?director directed ?movie .
  OPTIONAL { ?director worked_with ?coworker . } }`), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Empty() {
		t.Fatal("X2 should be satisfiable")
	}
	dir := rel.VarSet("director")
	for _, n := range []string{"B._De_Palma", "G._Hamilton", "T._Young", "D._Koepp"} {
		id, _ := st.TermID(mustIRI(n))
		if !dir.Get(int(id)) {
			t.Fatalf("%s missing from director", n)
		}
	}
	br := rel.Branches[0]
	fresh := br.Branch.freshNamesOf("director")[0]
	fi, _ := br.Branch.varNamed(fresh)
	chi := br.Sol.Chi[fi]
	if chi.Count() != 2 {
		t.Fatalf("optional director copy has %d candidates, want 2", chi.Count())
	}
}

// TestConstantInQuery: constants become singleton SOI variables
// (Sect. 4.5).
func TestConstantInQuery(t *testing.T) {
	st := fig1a(t)
	rel, err := QueryDualSimulation(st, sparql.MustParse(`
SELECT * WHERE { ?m genre <Action> . ?d directed ?m }`), Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := rel.VarSet("m")
	if m.Count() != 2 {
		t.Fatalf("m candidates = %d, want 2", m.Count())
	}
}

// TestLoweringSharesConstants: every occurrence of one constant in a
// basic graph pattern is the same pattern node.
func TestLoweringSharesConstants(t *testing.T) {
	br := branchOf(t, `SELECT * WHERE { ?a <p> <k> . ?b <q> <k> }`, fig1a(t))
	// a, b and one shared constant node for <k>.
	if len(br.Vars) != 3 {
		t.Fatalf("vars = %d, want 3 (constant shared)", len(br.Vars))
	}
}

// TestEmptyQueryRelation: an unsatisfiable mandatory core yields an empty
// relation over every branch.
func TestEmptyQueryRelation(t *testing.T) {
	st := fig1a(t)
	rel, err := QueryDualSimulation(st, sparql.MustParse(`
SELECT * WHERE { ?x no_such_pred ?y OPTIONAL { ?x directed ?z } }`), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !rel.Empty() {
		t.Fatal("expected empty query relation")
	}
	if !rel.VarSet("z").IsEmpty() {
		t.Fatal("optional var of empty branch should contribute nothing")
	}
}

func mustIRI(n string) rdf.Term { return rdf.NewIRI(n) }
