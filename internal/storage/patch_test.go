package storage

import (
	"reflect"
	"strings"
	"testing"

	"dualsim/internal/rdf"
)

func tripleSet(st *Store) map[string]bool {
	out := make(map[string]bool)
	for _, t := range st.Triples() {
		out[t.S.Key()+"|"+t.P+"|"+t.O.Key()] = true
	}
	return out
}

// TestAddAllAtomic: FromTriples refuses a batch holding an invalid
// triple anywhere in it, naming the triple, and builds nothing.
func TestAddAllAtomic(t *testing.T) {
	bad := []rdf.Triple{
		rdf.T("a", "p", "b"),
		{S: rdf.NewLiteral("oops"), P: "p", O: rdf.NewIRI("c")}, // invalid: literal subject
		rdf.T("d", "p", "e"),
	}
	st, err := FromTriples(bad)
	if err == nil || st != nil {
		t.Fatalf("FromTriples accepted an invalid batch: store %v, err %v", st, err)
	}
	if !strings.Contains(err.Error(), "triple 1 of 3") {
		t.Fatalf("error %q does not name the invalid triple", err)
	}
	st, err = FromTriples(bad[:1])
	if err != nil {
		t.Fatal(err)
	}
	if st.NumTriples() != 1 || st.NumNodes() != 2 {
		t.Fatalf("got %d triples over %d nodes, want 1 over 2", st.NumTriples(), st.NumNodes())
	}
}

func TestPatchAddDelete(t *testing.T) {
	base := mustStore(t, fig1a())
	adds := []rdf.Triple{
		rdf.T("J._McTiernan", "directed", "Die_Hard"), // new subject, object
		rdf.T("B._De_Palma", "awarded", "Oscar"),      // duplicate: no-op
	}
	dels := []rdf.Triple{
		rdf.T("T._Young", "awarded", "BAFTA_Awards"),
		rdf.T("Nobody", "awarded", "Nothing"), // absent: no-op
	}
	next, stats, err := base.Patch(adds, dels)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Added != 1 || stats.Deleted != 1 {
		t.Fatalf("stats = %+v, want Added 1 Deleted 1", stats)
	}
	if stats.NewTerms != 2 {
		t.Fatalf("NewTerms = %d, want 2", stats.NewTerms)
	}
	if next.NumTriples() != base.NumTriples() {
		t.Fatalf("net triple count changed: %d -> %d", base.NumTriples(), next.NumTriples())
	}

	// The receiver snapshot is untouched.
	if base.NumTriples() != 20 || base.NumNodes() != 20 {
		t.Fatalf("base mutated: %d triples, %d nodes", base.NumTriples(), base.NumNodes())
	}
	if _, ok := base.TermID(rdf.NewIRI("J._McTiernan")); ok {
		t.Fatal("base snapshot sees a term interned after it was taken")
	}
	if _, ok := next.TermID(rdf.NewIRI("J._McTiernan")); !ok {
		t.Fatal("patched snapshot misses its own new term")
	}

	got := tripleSet(next)
	if got["i:T._Young|awarded|i:BAFTA_Awards"] {
		t.Fatal("deleted triple survived the patch")
	}
	if !got["i:J._McTiernan|directed|i:Die_Hard"] {
		t.Fatal("added triple missing after the patch")
	}

	// Ids are stable across the lineage.
	id1, _ := base.TermID(rdf.NewIRI("B._De_Palma"))
	id2, ok := next.TermID(rdf.NewIRI("B._De_Palma"))
	if !ok || id1 != id2 {
		t.Fatalf("term id drifted across patch: %d vs %d", id1, id2)
	}
}

func TestPatchDeleteThenAddIsPresent(t *testing.T) {
	base := mustStore(t, []rdf.Triple{rdf.T("a", "p", "b")})
	next, stats, err := base.Patch(
		[]rdf.Triple{rdf.T("a", "p", "b")},
		[]rdf.Triple{rdf.T("a", "p", "b")},
	)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Added != 0 || stats.Deleted != 0 {
		t.Fatalf("cancelled patch reported %+v", stats)
	}
	if next.NumTriples() != 1 {
		t.Fatalf("dels-before-adds semantics broken: %d triples", next.NumTriples())
	}
}

func TestPatchAtomicValidation(t *testing.T) {
	base := mustStore(t, fig1a())
	adds := []rdf.Triple{
		rdf.T("New_Subject", "p", "New_Object"),
		{S: rdf.NewLiteral("bad"), P: "p", O: rdf.NewIRI("x")},
	}
	if _, _, err := base.Patch(adds, nil); err == nil {
		t.Fatal("Patch accepted an invalid add")
	}
	// The valid prefix must not have leaked into the dictionary.
	if _, ok := base.d.lookupTerm(rdf.IRI, "New_Subject"); ok {
		t.Fatal("failed Patch interned terms")
	}
}

func TestPatchIndexAndMatrixReuse(t *testing.T) {
	base := mustStore(t, fig1a())
	dirID, _ := base.PredIDOf("directed")
	genreID, _ := base.PredIDOf("genre")

	// A delete touches only "directed".
	next, stats, err := base.Patch(nil, []rdf.Triple{rdf.T("D._Koepp", "directed", "Mortdecai")})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TouchedPreds != 1 {
		t.Fatalf("TouchedPreds = %d, want 1", stats.TouchedPreds)
	}
	if stats.NewTerms != 0 {
		t.Fatalf("NewTerms = %d, want 0", stats.NewTerms)
	}
	if next.NumTriples() != base.NumTriples()-1 {
		t.Fatalf("delete not applied: %d triples", next.NumTriples())
	}

	// The patched snapshot's indexes still agree with a from-scratch
	// build of the same triples.
	fresh := mustStore(t, next.Triples())
	if !reflect.DeepEqual(tripleSet(fresh), tripleSet(next)) {
		t.Fatal("patched snapshot diverges from a fresh build")
	}
	if next.DistinctSubjects(dirID) != fresh.DistinctSubjects(mustPred(t, fresh, "directed")) {
		t.Fatal("per-predicate statistics not maintained")
	}

	// An add that interns a new term and touches only "directed" again:
	// the universe grows, and genre keeps its rows — the receiver's
	// arrays — under a directory widened to the new node count.
	grown, stats, err := next.Patch([]rdf.Triple{rdf.T("J._McTiernan", "directed", "Die_Hard")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.NewTerms != 2 || stats.TouchedPreds != 1 {
		t.Fatalf("stats = %+v, want 2 new terms and 1 touched predicate", stats)
	}
	sameRows(t, "Patch", next, grown, genreID)

	// Union keeps the first part's rows the same way while the second
	// part's terms grow the universe.
	other := mustStore(t, []rdf.Triple{rdf.T("Die_Hard", "rated", "R"), rdf.T("Heat", "rated", "R")})
	u, err := Union(grown, other)
	if err != nil {
		t.Fatal(err)
	}
	if u.NumNodes() <= grown.NumNodes() {
		t.Fatalf("union has %d nodes, the first part %d: the universe did not grow", u.NumNodes(), grown.NumNodes())
	}
	for p := 0; p < grown.NumPreds(); p++ {
		sameRows(t, "Union", grown, u, PredID(p))
	}
}

// sameRows fails unless every non-empty row of predicate p in derived is
// the very array it is in from, and derived's matrices span derived's
// node universe.
func sameRows(t *testing.T, what string, from, derived *Store, p PredID) {
	t.Helper()
	subjects, _ := from.PSO(p)
	for _, s := range subjects {
		a, b := from.Matrices(p).F.Row(int(s)), derived.Matrices(p).F.Row(int(s))
		if &a[0] != &b[0] {
			t.Fatalf("%s: row %d of %s is a copy, not the receiver's array", what, s, from.Pred(p))
		}
	}
	if m := derived.Matrices(p); m.F.Dim() != derived.NumNodes() || m.B.Dim() != derived.NumNodes() {
		t.Fatalf("%s: %s spans %d/%d nodes, the store %d", what, from.Pred(p), m.F.Dim(), m.B.Dim(), derived.NumNodes())
	}
}

func mustPred(t *testing.T, st *Store, p string) PredID {
	t.Helper()
	id, ok := st.PredIDOf(p)
	if !ok {
		t.Fatalf("predicate %q missing", p)
	}
	return id
}

func TestPatchChain(t *testing.T) {
	// A chain of patches stays consistent with the cumulative triple set.
	cur := mustStore(t, []rdf.Triple{rdf.T("n0", "next", "n1")})
	want := tripleSet(cur)
	for i := 1; i < 20; i++ {
		add := rdf.Triple{S: rdf.NewIRI(nodeName(i)), P: "next", O: rdf.NewIRI(nodeName(i + 1))}
		var dels []rdf.Triple
		if i%3 == 0 {
			dels = []rdf.Triple{{S: rdf.NewIRI(nodeName(i - 1)), P: "next", O: rdf.NewIRI(nodeName(i))}}
		}
		next, _, err := cur.Patch([]rdf.Triple{add}, dels)
		if err != nil {
			t.Fatal(err)
		}
		want[add.S.Key()+"|next|"+add.O.Key()] = true
		for _, d := range dels {
			delete(want, d.S.Key()+"|next|"+d.O.Key())
		}
		if got := tripleSet(next); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: patched set diverged:\n got %v\nwant %v", i, got, want)
		}
		cur = next
	}
}

func nodeName(i int) string {
	return "n" + string(rune('0'+i/10)) + string(rune('0'+i%10))
}
