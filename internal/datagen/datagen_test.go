package datagen

import (
	"testing"

	"dualsim/internal/rdf"
	"dualsim/internal/storage"
)

func TestLUBMDeterministic(t *testing.T) {
	a := LUBM(DefaultLUBM(2, 7))
	b := LUBM(DefaultLUBM(2, 7))
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("triple %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	c := LUBM(DefaultLUBM(2, 8))
	if len(a) == len(c) && sameTriples(a, c) {
		t.Fatal("different seeds produced identical data")
	}
}

func sameTriples(a, b []rdf.Triple) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestLUBMSchemaInvariants(t *testing.T) {
	st, err := LUBMStore(DefaultLUBM(3, 42))
	if err != nil {
		t.Fatal(err)
	}
	// The paper's LUBM property: a tiny predicate alphabet (≤18 here).
	if st.NumPreds() > 18 {
		t.Fatalf("NumPreds = %d, want ≤ 18", st.NumPreds())
	}
	for _, pred := range []string{
		PredType, PredSubOrganizationOf, PredWorksFor, PredMemberOf,
		PredAdvisor, PredTakesCourse, PredTeacherOf, PredPublicationAuthor,
		PredDegreeFrom, PredHeadOf, PredTeachingAssistant,
	} {
		pid, ok := st.PredIDOf(pred)
		if !ok || st.PredCount(pid) == 0 {
			t.Fatalf("predicate %s missing or empty", pred)
		}
	}

	// Every department belongs to exactly one university.
	sub, _ := st.PredIDOf(PredSubOrganizationOf)
	typ, _ := st.PredIDOf(PredType)
	deptClass, _ := st.TermID(rdf.NewIRI(ClassDepartment))
	uniClass, _ := st.TermID(rdf.NewIRI(ClassUniversity))
	for _, dept := range st.Subjects(typ, deptClass) {
		unis := 0
		for _, o := range st.Objects(sub, dept) {
			for _, cls := range st.Objects(typ, o) {
				if cls == uniClass {
					unis++
				}
			}
		}
		if unis != 1 {
			t.Fatalf("department %s has %d universities", st.Term(dept).Value, unis)
		}
	}

	// Every publication has at least one author, and all authors are
	// persons (faculty or students), never departments.
	pubClass, _ := st.TermID(rdf.NewIRI(ClassPublication))
	author, _ := st.PredIDOf(PredPublicationAuthor)
	pubs := st.Subjects(typ, pubClass)
	if len(pubs) == 0 {
		t.Fatal("no publications generated")
	}
	for _, pub := range pubs {
		if len(st.Objects(author, pub)) == 0 {
			t.Fatalf("publication %s has no author", st.Term(pub).Value)
		}
	}

	// Head of department works for it.
	head, _ := st.PredIDOf(PredHeadOf)
	works, _ := st.PredIDOf(PredWorksFor)
	heads, depts := st.PSO(head)
	for i, h := range heads {
		if d := depts[i]; !st.HasTriple(h, works, d) {
			t.Fatalf("head %s does not work for %s", st.Term(h).Value, st.Term(d).Value)
		}
	}
	if len(heads) == 0 {
		t.Fatal("no heads generated")
	}
}

func TestLUBMScales(t *testing.T) {
	small, _ := LUBMStore(DefaultLUBM(1, 1))
	big, _ := LUBMStore(DefaultLUBM(4, 1))
	if big.NumTriples() < 3*small.NumTriples() {
		t.Fatalf("scaling broken: %d vs %d", small.NumTriples(), big.NumTriples())
	}
}

func TestKGDeterministic(t *testing.T) {
	a := KG(DefaultKG(1, 5))
	b := KG(DefaultKG(1, 5))
	if len(a) != len(b) || !sameTriples(a, b) {
		t.Fatal("KG not deterministic")
	}
}

func TestKGSchemaInvariants(t *testing.T) {
	st, err := KGStore(DefaultKG(1, 42))
	if err != nil {
		t.Fatal(err)
	}
	// DBpedia-like: many predicates with a long rare tail.
	if st.NumPreds() < 40 {
		t.Fatalf("NumPreds = %d, want a long tail", st.NumPreds())
	}
	// Films always have a director and a genre.
	typ, _ := st.PredIDOf(KGType)
	filmClass, _ := st.TermID(rdf.NewIRI(KGClassFilm))
	director, _ := st.PredIDOf(KGDirector)
	genre, _ := st.PredIDOf(KGGenre)
	films := st.Subjects(typ, filmClass)
	if len(films) == 0 {
		t.Fatal("no films")
	}
	for _, f := range films {
		if len(st.Objects(director, f)) == 0 {
			t.Fatalf("film %s without director", st.Term(f).Value)
		}
		if len(st.Objects(genre, f)) == 0 {
			t.Fatalf("film %s without genre", st.Term(f).Value)
		}
	}
	// High predicate selectivity: director objects are a small fraction
	// of people (Zipfian concentration).
	people, _ := st.TermID(rdf.NewIRI(KGClassPerson))
	nPeople := len(st.Subjects(typ, people))
	if st.DistinctObjects(director) >= nPeople/2 {
		t.Fatalf("directors not concentrated: %d of %d people",
			st.DistinctObjects(director), nPeople)
	}
}

func TestKGZipfSkew(t *testing.T) {
	st, err := KGStore(DefaultKG(1, 42))
	if err != nil {
		t.Fatal(err)
	}
	// The most popular director must have directed far more than the
	// median: the paper's selectivity argument depends on the skew.
	director, _ := st.PredIDOf(KGDirector)
	counts := make(map[storage.NodeID]int)
	_, directors := st.PSO(director)
	for _, d := range directors {
		counts[d]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 5 {
		t.Fatalf("top director has only %d films; zipf skew missing", max)
	}
}
