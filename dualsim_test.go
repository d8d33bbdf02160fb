package dualsim_test

import (
	"bytes"
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dualsim"
	"dualsim/internal/engine"
	"dualsim/internal/prune"
	"dualsim/internal/queries"
)

func fig1a(t *testing.T) *dualsim.Store {
	t.Helper()
	st, err := dualsim.FromTriples(queries.Fig1aTriples())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// open starts a session over st that closes with the test.
func open(t *testing.T, st *dualsim.Store, opts ...dualsim.Option) *dualsim.DB {
	t.Helper()
	db, err := dualsim.Open(st, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestPublicAPIQuickstart(t *testing.T) {
	st := fig1a(t)
	q, err := dualsim.ParseQuery(queries.QueryX1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	db := open(t, st)

	// 1. Dual simulation: candidate sets.
	rel, err := db.DualSimulate(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Empty() {
		t.Fatal("X1 relation should be non-empty")
	}
	got := termValues(rel.Candidates("director"))
	want := []string{"B._De_Palma", "G._Hamilton"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("directors = %v, want %v", got, want)
	}
	if rel.CandidateCount("movie") != 2 {
		t.Fatalf("movies = %d", rel.CandidateCount("movie"))
	}
	if rel.Stats().Rounds < 1 {
		t.Fatal("stats missing")
	}

	// 2. Pruning: 16 of 20 triples disqualified.
	p, err := db.Prune(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if p.Kept() != 4 || p.Total() != 20 {
		t.Fatalf("kept/total = %d/%d", p.Kept(), p.Total())
	}
	if p.Ratio() != 0.8 {
		t.Fatalf("ratio = %f", p.Ratio())
	}

	// 3. The pruned database, written from the masks: the 4 kept triples.
	var buf bytes.Buffer
	if err := p.WriteNTriples(&buf); err != nil {
		t.Fatal(err)
	}
	if kept, err := dualsim.LoadNTriples(&buf); err != nil || kept.NumTriples() != 4 {
		t.Fatalf("written pruned database: %v, %v", kept, err)
	}

	// 4. Evaluation, pruned vs. full: identical results (Theorem 2).
	pruned, _, err := db.Exec(ctx, queries.QueryX1)
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := open(t, st, dualsim.WithPruning(false)).Exec(ctx, queries.QueryX1)
	if err != nil {
		t.Fatal(err)
	}
	if full.Len() != 2 || !full.Equal(pruned) {
		t.Fatalf("full %d rows vs pruned %d rows", full.Len(), pruned.Len())
	}

	// 5. Required triples = kept triples on this example.
	req, err := prune.RequiredCount(ctx, st, q, engine.NewIndexNL())
	if err != nil {
		t.Fatal(err)
	}
	if req != 4 {
		t.Fatalf("required = %d", req)
	}
}

func termValues(ts []dualsim.Term) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.Value
	}
	sort.Strings(out)
	return out
}

func TestPublicAPIAllOptions(t *testing.T) {
	st := fig1a(t)
	q := dualsim.MustParseQuery(queries.QueryX2)
	variants := [][]dualsim.Option{
		{},
		{dualsim.WithPruning(false)},
		{dualsim.WithEngine(dualsim.IndexNL)},
	}
	var baselineCount int
	for i, opts := range variants {
		rel, err := open(t, st, opts...).DualSimulate(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		c := rel.CandidateCount("director")
		if i == 0 {
			baselineCount = c
			continue
		}
		if c != baselineCount {
			t.Fatalf("option variant %d changed the relation: %d vs %d", i, c, baselineCount)
		}
	}
}

// TestEveryOptionHasACaller is the session-option ledger: every exported
// With* function in options.go must be referenced as dualsim.WithX by a
// non-test Go file under cmd/, internal/ or benchmark/ — a command, the
// server or the benchmark. An option only tests and examples set is a
// knob nobody turns.
func TestEveryOptionHasACaller(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "options.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var options []string
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.IsExported() && strings.HasPrefix(fn.Name.Name, "With") {
			options = append(options, fn.Name.Name)
		}
	}
	if len(options) == 0 {
		t.Fatal("no With* options found in options.go")
	}
	var callers strings.Builder
	for _, root := range []string{"cmd", "internal", "benchmark"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			b, err := os.ReadFile(path)
			callers.Write(b)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	src := callers.String()
	for _, name := range options {
		if !strings.Contains(src, "dualsim."+name+"(") {
			t.Errorf("%s has no caller outside tests and examples; delete it or give it one", name)
		}
	}
}

func TestPublicAPINTriplesRoundTrip(t *testing.T) {
	st := fig1a(t)
	var buf bytes.Buffer
	if err := dualsim.DumpNTriples(&buf, st); err != nil {
		t.Fatal(err)
	}
	st2, err := dualsim.LoadNTriples(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if st2.NumTriples() != st.NumTriples() {
		t.Fatalf("roundtrip lost triples: %d vs %d", st2.NumTriples(), st.NumTriples())
	}
	ts, err := dualsim.ReadNTriples(strings.NewReader("<a> <p> <b> ."))
	if err != nil || len(ts) != 1 {
		t.Fatalf("ReadNTriples = %v, %v", ts, err)
	}
}

func TestPublicAPIQueryAnalyses(t *testing.T) {
	q := dualsim.MustParseQuery(queries.QueryX2)
	if got := dualsim.QueryVars(q); len(got) != 3 {
		t.Fatalf("QueryVars = %v", got)
	}
	if got := dualsim.MandatoryVars(q); len(got) != 2 {
		t.Fatalf("MandatoryVars = %v", got)
	}
	if !dualsim.IsWellDesigned(q) {
		t.Fatal("X2 is well-designed")
	}
	if dualsim.IsWellDesigned(dualsim.MustParseQuery(queries.QueryX3)) {
		t.Fatal("X3 is not well-designed")
	}
}

func TestPublicAPIGenerators(t *testing.T) {
	lubm, err := dualsim.FromTriples(dualsim.GenerateLUBM(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	if lubm.NumTriples() < 500 {
		t.Fatalf("LUBM too small: %d", lubm.NumTriples())
	}
	kg, err := dualsim.FromTriples(dualsim.GenerateKG(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	if kg.NumTriples() < 2000 {
		t.Fatalf("KG too small: %d", kg.NumTriples())
	}
	if len(dualsim.GenerateLUBM(1, 3)) != lubm.NumTriples() {
		// Generator emits unique triples only if dedup is a no-op; allow
		// slight slack from dedup.
		if len(dualsim.GenerateLUBM(1, 3)) < lubm.NumTriples() {
			t.Fatal("triple slice smaller than store")
		}
	}
	if dualsim.Volcano.String() != "volcano" || dualsim.IndexNL.String() != "indexnl" {
		t.Fatal("engine names changed")
	}
}

func TestPublicAPINilStore(t *testing.T) {
	if _, err := dualsim.Open(nil); err == nil {
		t.Fatal("nil store accepted")
	}
	if _, err := dualsim.OpenAt(nil, 1); err == nil {
		t.Fatal("nil store accepted")
	}
}
