package dualsim_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dualsim"
	"dualsim/internal/bitvec"
	"dualsim/internal/core"
	"dualsim/internal/proptest"
	"dualsim/internal/queries"
	"dualsim/internal/rdf"
	"dualsim/internal/sparql"
	"dualsim/internal/storage"
)

// patternRegressionSeeds are replayed before anything else; no seed has
// failed yet.
var patternRegressionSeeds []int64

// randomPatternTerm draws a variable of three or, one time in five, a
// constant; n5 is in no store.
func randomPatternTerm(r *rand.Rand) sparql.Term {
	if r.Intn(5) == 0 {
		return sparql.C(fmt.Sprintf("n%d", r.Intn(6)))
	}
	return sparql.V(fmt.Sprintf("v%d", r.Intn(3)))
}

// candidateIDs is a session relation's χ row of a variable as node ids.
func candidateIDs(st *dualsim.Store, rel *dualsim.Relation, v string) []storage.NodeID {
	var ids []storage.NodeID
	for _, t := range rel.Candidates(v) {
		id, ok := st.TermID(t)
		if !ok {
			return nil
		}
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// patternIDs is a pattern relation's χ row of a variable as node ids.
func patternIDs(rel *core.Relation, v string) []storage.NodeID {
	var ids []storage.NodeID
	for id := range rel.Set(v) {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// TestPropertyDualSimulateMatchesPattern pins the equivalence that stands
// in for a pattern-graph entry point on the session: DB.DualSimulate of a
// basic graph pattern, constants in place of bound nodes, is the largest
// dual simulation core.DualSimulation computes for the pattern graph it
// spells (queries.ToPattern, also Table 2's path). Per variable the χ
// sets are equal, and the session reports the query empty exactly when a
// pattern node's χ is empty (Theorem 1) — then it reports every variable
// empty, while the pattern relation keeps the rows of any component that
// is not.
func TestPropertyDualSimulateMatchesPattern(t *testing.T) {
	ctx := context.Background()

	// Fig. 1(a): the movies of the directors of action movies.
	st := fig1a(t)
	bound := dualsim.MustParseQuery(`SELECT * WHERE { ?director <directed> ?movie . ?movie <genre> <Action> . }`)
	rel, err := open(t, st).DualSimulate(ctx, bound)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Empty() {
		t.Fatal("relation should be non-empty")
	}
	if movies := termValues(rel.Candidates("movie")); strings.Join(movies, ",") != "Goldfinger,Mission:_Impossible" {
		t.Fatalf("movies = %v", movies)
	}
	pat, err := queries.ToPattern(bound.Expr)
	if err != nil {
		t.Fatal(err)
	}
	if pat.IsCyclic() {
		t.Fatal("pattern is acyclic")
	}

	var cases, empty, constants int
	proptest.Check(t, func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var ts []dualsim.Triple
		for range 6 + r.Intn(14) {
			ts = append(ts, rdf.T(fmt.Sprintf("n%d", r.Intn(5)), fmt.Sprintf("p%d", r.Intn(3)), fmt.Sprintf("n%d", r.Intn(5))))
		}
		st, err := dualsim.FromTriples(ts)
		if err != nil {
			t.Fatal(err)
		}
		// p3, one time in ten, is in no store: an edge no triple matches.
		bgp := make(sparql.BGP, 1+r.Intn(4))
		for i := range bgp {
			pred := fmt.Sprintf("p%d", r.Intn(3))
			if r.Intn(10) == 0 {
				pred = "p3"
			}
			bgp[i] = sparql.TriplePattern{S: randomPatternTerm(r), P: sparql.C(pred), O: randomPatternTerm(r)}
		}
		db, err := dualsim.Open(st)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		got, err := db.DualSimulate(ctx, &dualsim.Query{Expr: bgp})
		if err != nil {
			t.Fatal(err)
		}
		pat, err := queries.ToPattern(bgp)
		if err != nil {
			t.Fatal(err)
		}
		want := core.DualSimulation(st, pat, core.Config{})

		unsat := slices.ContainsFunc(want.Chi, (*bitvec.Vector).IsEmpty)
		if got.Empty() != unsat {
			t.Logf("seed %d: %v: session empty %v, a pattern node empty %v", seed, bgp, got.Empty(), unsat)
			return false
		}
		cases++
		if unsat {
			empty++
		}
		if len(sparql.Vars(bgp)) < len(pat.Vars()) {
			constants++
		}
		for _, v := range sparql.Vars(bgp) {
			g, w := candidateIDs(st, got, v), patternIDs(want, v)
			if unsat {
				w = nil
			}
			if !slices.Equal(g, w) || got.CandidateCount(v) != len(w) {
				t.Logf("seed %d: %v: χ(%s) = %v, pattern %v", seed, bgp, v, g, w)
				return false
			}
		}
		return true
	}, 500, patternRegressionSeeds)
	// The generator must keep producing both outcomes and constants, or
	// the property covers less than it says.
	t.Logf("%d cases, %d empty, %d with constants", cases, empty, constants)
	if empty == 0 || empty == cases || constants == 0 {
		t.Fatalf("degenerate generator: %d cases, %d empty, %d with constants", cases, empty, constants)
	}
}
