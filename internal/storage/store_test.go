package storage

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"dualsim/internal/rdf"
)

// fig1a returns the example graph database of the paper's Fig. 1(a).
func fig1a() []rdf.Triple {
	return []rdf.Triple{
		rdf.T("B._De_Palma", "directed", "Mission:_Impossible"),
		rdf.T("B._De_Palma", "awarded", "Oscar"),
		rdf.T("B._De_Palma", "born_in", "Newark"),
		rdf.T("B._De_Palma", "worked_with", "D._Koepp"),
		rdf.T("Mission:_Impossible", "genre", "Action"),
		rdf.T("Goldfinger", "genre", "Action"),
		rdf.T("G._Hamilton", "directed", "Goldfinger"),
		rdf.T("G._Hamilton", "born_in", "Paris"),
		rdf.T("G._Hamilton", "awarded", "Thunderball"),
		rdf.T("G._Hamilton", "worked_with", "H._Saltzman"),
		rdf.T("Goldfinger", "sequel_of", "From_Russia_with_Love"),
		rdf.T("From_Russia_with_Love", "prequel_of", "Goldfinger"),
		rdf.T("H._Saltzman", "born_in", "Saint_John"),
		rdf.T("T._Young", "directed", "From_Russia_with_Love"),
		rdf.T("T._Young", "awarded", "BAFTA_Awards"),
		rdf.T("D._Koepp", "worked_with", "P.R._Hunt"),
		rdf.T("D._Koepp", "directed", "Mortdecai"),
		rdf.TL("Newark", "population", "277140"),
		rdf.TL("Paris", "population", "2220445"),
		rdf.TL("Saint_John", "population", "70063"),
	}
}

func mustStore(t *testing.T, ts []rdf.Triple) *Store {
	t.Helper()
	st, err := FromTriples(ts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestBuildCounts(t *testing.T) {
	st := mustStore(t, fig1a())
	if st.NumTriples() != 20 {
		t.Fatalf("NumTriples = %d, want 20", st.NumTriples())
	}
	if st.NumPreds() != 8 {
		t.Fatalf("NumPreds = %d, want 8", st.NumPreds())
	}
	// 17 IRIs + 3 literals
	if st.NumNodes() != 20 {
		t.Fatalf("NumNodes = %d, want 20", st.NumNodes())
	}
}

func TestDedup(t *testing.T) {
	ts := []rdf.Triple{rdf.T("a", "p", "b"), rdf.T("a", "p", "b"), rdf.T("a", "p", "c")}
	st := mustStore(t, ts)
	if st.NumTriples() != 2 {
		t.Fatalf("NumTriples = %d, want 2", st.NumTriples())
	}
}

func TestLookups(t *testing.T) {
	st := mustStore(t, fig1a())
	directed, ok := st.PredIDOf("directed")
	if !ok {
		t.Fatal("predicate missing")
	}
	dp, ok := st.TermID(rdf.NewIRI("B._De_Palma"))
	if !ok {
		t.Fatal("term missing")
	}
	mi, _ := st.TermID(rdf.NewIRI("Mission:_Impossible"))

	if got := st.Objects(directed, dp); !reflect.DeepEqual(got, []NodeID{mi}) {
		t.Fatalf("Objects = %v", got)
	}
	if got := st.Subjects(directed, mi); !reflect.DeepEqual(got, []NodeID{dp}) {
		t.Fatalf("Subjects = %v", got)
	}
	if !st.HasTriple(dp, directed, mi) {
		t.Fatal("HasTriple false negative")
	}
	if st.HasTriple(mi, directed, dp) {
		t.Fatal("HasTriple false positive")
	}
}

func TestStats(t *testing.T) {
	st := mustStore(t, fig1a())
	directed, _ := st.PredIDOf("directed")
	if got := st.PredCount(directed); got != 4 {
		t.Fatalf("PredCount(directed) = %d, want 4", got)
	}
	// 4 distinct directors directed 4 distinct movies
	if got := st.DistinctSubjects(directed); got != 4 {
		t.Fatalf("DistinctSubjects = %d", got)
	}
	if got := st.DistinctObjects(directed); got != 4 {
		t.Fatalf("DistinctObjects = %d", got)
	}
	genre, _ := st.PredIDOf("genre")
	if got := st.DistinctObjects(genre); got != 1 {
		t.Fatalf("DistinctObjects(genre) = %d, want 1 (Action)", got)
	}
}

func TestLiteralAndIRIDistinct(t *testing.T) {
	// "70063" as literal and as IRI must intern to different nodes.
	ts := []rdf.Triple{
		rdf.TL("a", "p", "70063"),
		rdf.T("b", "p", "70063"),
	}
	st := mustStore(t, ts)
	lit, ok1 := st.TermID(rdf.NewLiteral("70063"))
	iri, ok2 := st.TermID(rdf.NewIRI("70063"))
	if !ok1 || !ok2 || lit == iri {
		t.Fatalf("universes collide: %v %v %d %d", ok1, ok2, lit, iri)
	}
	if st.Term(lit).Kind != rdf.Literal || st.Term(iri).Kind != rdf.IRI {
		t.Fatal("decode kind mismatch")
	}
	// The snapshot codec rebuilds both id maps: same ids, same kinds.
	var buf bytes.Buffer
	if err := st.EncodeSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshotBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if id, ok := got.TermID(rdf.NewLiteral("70063")); !ok || id != lit {
		t.Fatalf("decoded literal id = %d (%v), want %d", id, ok, lit)
	}
	if id, ok := got.TermID(rdf.NewIRI("70063")); !ok || id != iri {
		t.Fatalf("decoded IRI id = %d (%v), want %d", id, ok, iri)
	}
}

// A dictionary lookup is keyed by the term's own Value: no key string is
// built, found or not.
func TestTermIDDoesNotAllocate(t *testing.T) {
	st := mustStore(t, fig1a())
	present, absent := fig1a()[0].S, rdf.NewLiteral("no such term")
	if _, ok := st.TermID(present); !ok {
		t.Fatal("fixture term missing")
	}
	if n := testing.AllocsPerRun(100, func() {
		st.TermID(present)
		st.TermID(absent)
	}); n != 0 {
		t.Fatalf("TermID allocates %.0f times per present+absent lookup, want 0", n)
	}
}

func TestAddAfterBuildFails(t *testing.T) {
	st := mustStore(t, fig1a())
	if err := st.Add(rdf.T("x", "y", "z")); err == nil {
		t.Fatal("Add after Build succeeded")
	}
}

func TestAccessBeforeBuildPanics(t *testing.T) {
	st := New()
	_ = st.Add(rdf.T("a", "p", "b"))
	defer func() {
		if recover() == nil {
			t.Fatal("NumTriples before Build did not panic")
		}
	}()
	st.NumTriples()
}

func TestInvalidTripleRejected(t *testing.T) {
	st := New()
	bad := rdf.Triple{S: rdf.NewLiteral("x"), P: "p", O: rdf.NewIRI("y")}
	if err := st.Add(bad); err == nil {
		t.Fatal("literal subject accepted")
	}
}

func TestForEachTripleOrderAndStop(t *testing.T) {
	st := mustStore(t, fig1a())
	n := 0
	st.ForEachTriple(func(s NodeID, p PredID, o NodeID) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Fatalf("early stop visited %d", n)
	}
	total := 0
	st.ForEachTriple(func(s NodeID, p PredID, o NodeID) bool { total++; return true })
	if total != st.NumTriples() {
		t.Fatalf("visited %d of %d", total, st.NumTriples())
	}
}

func TestMatricesAgreeWithIndexes(t *testing.T) {
	st := mustStore(t, fig1a())
	for p := 0; p < st.NumPreds(); p++ {
		m := st.Matrices(PredID(p))
		if m.F.NNZ() != st.PredCount(PredID(p)) {
			t.Fatalf("pred %s: NNZ %d != count %d", st.Pred(PredID(p)), m.F.NNZ(), st.PredCount(PredID(p)))
		}
		if m.F.Dim() != st.NumNodes() {
			t.Fatal("matrix dimension mismatch")
		}
		// Summary vector must agree with distinct subjects/objects.
		if m.F.NonEmptyRowCount() != st.DistinctSubjects(PredID(p)) {
			t.Fatal("f_a summary mismatch")
		}
		if m.B.NonEmptyRowCount() != st.DistinctObjects(PredID(p)) {
			t.Fatal("b_a summary mismatch")
		}
	}
	// Cache must return the identical pair.
	p0 := st.Matrices(0)
	if p1 := st.Matrices(0); p1 != p0 {
		t.Fatal("matrix cache miss")
	}
}

func TestRestrict(t *testing.T) {
	st := mustStore(t, fig1a())
	directed, _ := st.PredIDOf("directed")
	pruned := st.Restrict(func(s NodeID, p PredID, o NodeID) bool { return p == directed })
	if pruned.NumTriples() != 4 {
		t.Fatalf("pruned NumTriples = %d, want 4", pruned.NumTriples())
	}
	// Shared dictionary: ids keep meaning.
	dp, ok := pruned.TermID(rdf.NewIRI("B._De_Palma"))
	if !ok {
		t.Fatal("term lost in restriction")
	}
	if orig, _ := st.TermID(rdf.NewIRI("B._De_Palma")); orig != dp {
		t.Fatal("ids changed in restriction")
	}
	// Non-kept predicates are empty but still addressable.
	genre, _ := pruned.PredIDOf("genre")
	if pruned.PredCount(genre) != 0 {
		t.Fatal("genre triples survived")
	}
	// Original untouched.
	if st.NumTriples() != 20 {
		t.Fatal("restriction mutated original")
	}
}

func TestTriplesRoundTrip(t *testing.T) {
	in := fig1a()
	st := mustStore(t, in)
	out := st.Triples()
	if len(out) != len(in) {
		t.Fatalf("Triples returned %d, want %d", len(out), len(in))
	}
	seen := make(map[string]bool)
	for _, tr := range out {
		seen[tr.String()] = true
	}
	for _, tr := range in {
		if !seen[tr.String()] {
			t.Fatalf("triple lost: %v", tr)
		}
	}
}

func randomTriples(r *rand.Rand, n int) []rdf.Triple {
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	preds := []string{"p", "q", "r"}
	ts := make([]rdf.Triple, n)
	for i := range ts {
		ts[i] = rdf.T(names[r.Intn(len(names))], preds[r.Intn(len(preds))], names[r.Intn(len(names))])
	}
	return ts
}

func TestPropertyIndexesConsistent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		st, err := FromTriples(randomTriples(r, r.Intn(100)+1))
		if err != nil {
			return false
		}
		// Every triple enumerated must be found by all lookup paths, and
		// PSO/POS must be transposes of each other.
		ok := true
		count := 0
		st.ForEachTriple(func(s NodeID, p PredID, o NodeID) bool {
			count++
			if !st.HasTriple(s, p, o) {
				ok = false
				return false
			}
			if !contains(st.Objects(p, s), o) || !contains(st.Subjects(p, o), s) {
				ok = false
				return false
			}
			return true
		})
		return ok && count == st.NumTriples()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyRestrictIsSubset(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		st, err := FromTriples(randomTriples(r, r.Intn(120)+1))
		if err != nil {
			return false
		}
		keepPred := PredID(r.Intn(st.NumPreds()))
		sub := st.Restrict(func(s NodeID, p PredID, o NodeID) bool { return p == keepPred })
		ok := true
		sub.ForEachTriple(func(s NodeID, p PredID, o NodeID) bool {
			if p != keepPred || !st.HasTriple(s, p, o) {
				ok = false
				return false
			}
			return true
		})
		return ok && sub.NumTriples() == st.PredCount(keepPred)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func contains(xs []NodeID, x NodeID) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
