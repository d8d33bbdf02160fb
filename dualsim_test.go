package dualsim_test

import (
	"bytes"
	"context"
	"sort"
	"strings"
	"testing"

	"dualsim"
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

	// 3. Evaluation, full vs. pruned: identical results.
	full, err := db.Evaluate(ctx, st, q)
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := open(t, st, dualsim.WithEngine(dualsim.IndexNL)).Evaluate(ctx, p.Store(), q)
	if err != nil {
		t.Fatal(err)
	}
	if full.Len() != 2 || !full.Equal(pruned) {
		t.Fatalf("full %d rows vs pruned %d rows", full.Len(), pruned.Len())
	}

	// 4. Required triples = kept triples on this example.
	req, err := dualsim.RequiredTriples(st, q, dualsim.IndexNL)
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

func TestPublicAPIPattern(t *testing.T) {
	st := fig1a(t)
	p := dualsim.NewPattern().
		Edge("director", "directed", "movie").
		Edge("movie", "genre", "g")
	p.Bind("g", dualsim.IRI("Action"))
	if p.IsCyclic() {
		t.Fatal("pattern is acyclic")
	}
	rel, err := open(t, st).SimulatePattern(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Empty() {
		t.Fatal("relation should be non-empty")
	}
	movies := termValues(rel.Candidates("movie"))
	if strings.Join(movies, ",") != "Goldfinger,Mission:_Impossible" {
		t.Fatalf("movies = %v", movies)
	}
}

func TestPublicAPIAllOptions(t *testing.T) {
	st := fig1a(t)
	q := dualsim.MustParseQuery(queries.QueryX2)
	variants := [][]dualsim.Option{
		{},
		{dualsim.WithStrategy(dualsim.RowWiseStrategy)},
		{dualsim.WithStrategy(dualsim.ColWiseStrategy)},
		{dualsim.WithDeclarationOrder()},
		{dualsim.WithPlainInit()},
		{dualsim.WithCompressed()},
		{dualsim.WithShortCircuit()},
		{dualsim.WithWorkers(4)},
		{dualsim.WithWorkers(4), dualsim.WithStrategy(dualsim.ColWiseStrategy)},
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
	ts, err := dualsim.ReadTriples(strings.NewReader("<a> <p> <b> ."))
	if err != nil || len(ts) != 1 {
		t.Fatalf("ReadTriples = %v, %v", ts, err)
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
	lubm, err := dualsim.GenerateLUBMStore(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if lubm.NumTriples() < 500 {
		t.Fatalf("LUBM too small: %d", lubm.NumTriples())
	}
	kg, err := dualsim.GenerateKGStore(1, 3)
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
	q := dualsim.MustParseQuery(`SELECT * WHERE { ?s <p> ?o }`)
	if _, err := dualsim.Open(nil); err == nil {
		t.Fatal("nil store accepted")
	}
	if _, err := open(t, fig1a(t)).Evaluate(context.Background(), nil, q); err == nil {
		t.Fatal("nil store accepted")
	}
	if _, err := dualsim.RequiredTriples(nil, q, dualsim.IndexNL); err == nil {
		t.Fatal("nil store accepted")
	}
}
