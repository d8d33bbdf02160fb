package rdf

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dualsim/internal/proptest"
)

// regressionSeeds pins the counterexamples the properties have found so
// far (none yet); proptest.Check replays them before exploring.
var regressionSeeds []int64

func TestTermBasics(t *testing.T) {
	i := NewIRI("B._De_Palma")
	l := NewLiteral("70063")
	if !i.IsIRI() || i.IsLiteral() {
		t.Fatal("IRI kind confusion")
	}
	if l.IsIRI() || !l.IsLiteral() {
		t.Fatal("literal kind confusion")
	}
	if i.Key() == l.Key() {
		t.Fatal("keys collide across universes")
	}
	if NewIRI("x").Key() == NewLiteral("x").Key() {
		t.Fatal("same-value keys collide across universes")
	}
	if i.String() != "<B._De_Palma>" {
		t.Fatalf("String = %q", i.String())
	}
	if l.String() != `"70063"` {
		t.Fatalf("String = %q", l.String())
	}
}

func TestTripleConstructorsAndValidate(t *testing.T) {
	tr := T("SaintJohn", "population", "x")
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	tl := TL("SaintJohn", "population", "70063")
	if err := tl.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Triple{S: NewLiteral("70063"), P: "p", O: NewIRI("x")}
	if err := bad.Validate(); err == nil {
		t.Fatal("literal subject not rejected")
	}
	if err := (Triple{S: NewIRI("s"), P: "", O: NewIRI("o")}).Validate(); err == nil {
		t.Fatal("empty predicate not rejected")
	}
}

func TestParseTriple(t *testing.T) {
	cases := []struct {
		in   string
		want Triple
	}{
		{"<a> <p> <b> .", T("a", "p", "b")},
		{"<a> <p> <b>", T("a", "p", "b")},
		{"a p b .", T("a", "p", "b")},
		{`<a> <p> "lit" .`, TL("a", "p", "lit")},
		{`<a> <p> "li\"t\\x" .`, TL("a", "p", `li"t\x`)},
		{`<a> <p> "70063"^^<http://www.w3.org/2001/XMLSchema#integer> .`, TL("a", "p", "70063")},
		{`<a> <p> "hi"@en .`, TL("a", "p", "hi")},
		{"  <a>\t<p> <b>  . ", T("a", "p", "b")},
	}
	for _, c := range cases {
		got, err := ParseTriple(c.in)
		if err != nil {
			t.Fatalf("ParseTriple(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Fatalf("ParseTriple(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseTripleErrors(t *testing.T) {
	bad := []string{
		"",
		"<a>",
		"<a> <p>",
		"<a <p> <b> .",
		`"lit" <p> <b> .`,
		`<a> "lit" <b> .`,
		`<a> <p> "unterminated .`,
		"<a> <p> <b> extra .",
		"<> <p> <b> .",
		". <p> <b>",
	}
	for _, in := range bad {
		if _, err := ParseTriple(in); err == nil {
			t.Fatalf("ParseTriple(%q) succeeded, want error", in)
		}
	}
}

func TestReaderSkipsCommentsAndBlank(t *testing.T) {
	in := `
# the example database of Fig. 1(a), excerpt
<B._De_Palma> <directed> <Mission:_Impossible> .

<SaintJohn> <population> "70063" .
# done
`
	got, err := ReadAll(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []Triple{
		T("B._De_Palma", "directed", "Mission:_Impossible"),
		TL("SaintJohn", "population", "70063"),
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ReadAll = %v", got)
	}
}

func TestReaderErrorCarriesLine(t *testing.T) {
	in := "<a> <p> <b> .\n<broken\n"
	_, err := ReadAll(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v, want line 2", err)
	}
}

func TestReaderEOF(t *testing.T) {
	r := NewReader(strings.NewReader(""))
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("err = %v, want EOF", err)
	}
}

func TestWriterRoundTrip(t *testing.T) {
	ts := []Triple{
		T("a", "p", "b"),
		TL("a", "q", `line1
line2	tabbed "quoted" back\slash`),
		T("c", "p", "a"),
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, ts); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ts) {
		t.Fatalf("roundtrip mismatch:\n got %v\nwant %v", got, ts)
	}
}

func TestWriterCount(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	_ = w.Write(T("a", "p", "b"))
	_ = w.Write(T("b", "p", "c"))
	if w.Count() != 2 {
		t.Fatalf("Count = %d", w.Count())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

func randomLiteral(r *rand.Rand) string {
	alphabet := []rune("abc\"\\\n\t\r xyzäöü0123")
	n := r.Intn(12)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteRune(alphabet[r.Intn(len(alphabet))])
	}
	return b.String()
}

func TestPropertyLiteralEscapeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		lit := randomLiteral(r)
		tr := TL("s", "p", lit)
		got, err := ParseTriple(tr.String())
		if err != nil {
			// Empty literal values are rejected as empty object IRI only
			// for IRIs; literals may be empty.
			return lit == "" && got.O.Value == ""
		}
		return got.O.Value == lit
	}
	proptest.Check(t, f, 400, regressionSeeds)
}
