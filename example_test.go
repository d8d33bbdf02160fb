package dualsim_test

import (
	"context"
	"fmt"
	"sort"

	"dualsim"
)

// movieGraph is the running example of the paper (Fig. 1(a), abridged).
func movieGraph() *dualsim.Store {
	st, err := dualsim.FromTriples([]dualsim.Triple{
		dualsim.T("B._De_Palma", "directed", "Mission:_Impossible"),
		dualsim.T("B._De_Palma", "worked_with", "D._Koepp"),
		dualsim.T("G._Hamilton", "directed", "Goldfinger"),
		dualsim.T("G._Hamilton", "worked_with", "H._Saltzman"),
		dualsim.T("T._Young", "directed", "From_Russia_with_Love"),
		dualsim.T("D._Koepp", "directed", "Mortdecai"),
	})
	if err != nil {
		panic(err)
	}
	return st
}

// ExampleOpen shows the session flow: Open a DB over the store, Prepare
// a query once, Exec(ctx) the pruning pipeline any number of times.
func ExampleOpen() {
	st := movieGraph()
	db, _ := dualsim.Open(st)
	defer db.Close()

	pq, _ := db.Prepare(`SELECT * WHERE {
	  ?director <directed> ?movie .
	  ?director <worked_with> ?coworker . }`)

	res, stats, _ := pq.Exec(context.Background())
	fmt.Printf("%d rows; %d of %d triples survived pruning\n",
		res.Len(), stats.TriplesAfter, stats.TriplesBefore)
	// Output: 2 rows; 4 of 6 triples survived pruning
}

// ExampleDB_Exec runs a one-shot query with per-stage statistics.
func ExampleDB_Exec() {
	st := movieGraph()
	db, _ := dualsim.Open(st)

	res, stats, _ := db.Exec(context.Background(), `SELECT * WHERE {
	  ?director <directed> ?movie .
	  OPTIONAL { ?director <worked_with> ?coworker . } }`)
	fmt.Println("rows:", res.Len())
	for _, ss := range stats.Stages {
		fmt.Printf("%s: %d -> %d\n", ss.Name, ss.In, ss.Out)
	}
	// Output:
	// rows: 4
	// prune: 6 -> 6
	// evaluate: 6 -> 4
}

// ExampleDB_DualSimulate computes the candidate sets of the paper's
// query (X1): directors with a movie and a coworker.
func ExampleDB_DualSimulate() {
	db, _ := dualsim.Open(movieGraph())
	defer db.Close()
	q := dualsim.MustParseQuery(`SELECT * WHERE {
	  ?director <directed> ?movie .
	  ?director <worked_with> ?coworker . }`)

	rel, _ := db.DualSimulate(context.Background(), q)
	var names []string
	for _, t := range rel.Candidates("director") {
		names = append(names, t.Value)
	}
	sort.Strings(names)
	fmt.Println(names)
	// Output: [B._De_Palma G._Hamilton]
}

// ExampleDB_Prune reduces the database to the triples that can
// participate in a match; the pipeline evaluates on that view and answers
// as the full store does (Theorem 2).
func ExampleDB_Prune() {
	st := movieGraph()
	db, _ := dualsim.Open(st)
	defer db.Close()
	ctx := context.Background()
	const x1 = `SELECT * WHERE {
	  ?director <directed> ?movie .
	  ?director <worked_with> ?coworker . }`

	p, _ := db.Prune(ctx, dualsim.MustParseQuery(x1))
	fmt.Printf("%d of %d triples survive\n", p.Kept(), p.Total())

	unpruned, _ := dualsim.Open(st, dualsim.WithPruning(false))
	defer unpruned.Close()
	pruned, _, _ := db.Exec(ctx, x1)
	full, _, _ := unpruned.Exec(ctx, x1)
	fmt.Println("identical results:", full.Equal(pruned))
	// Output:
	// 4 of 6 triples survive
	// identical results: true
}

// ExampleWithPruning runs an OPTIONAL query under the formal set
// semantics, without the pruning stage.
func ExampleWithPruning() {
	db, _ := dualsim.Open(movieGraph(), dualsim.WithPruning(false))
	defer db.Close()

	res, _, _ := db.Exec(context.Background(), `SELECT * WHERE {
	  ?director <directed> ?movie .
	  OPTIONAL { ?director <worked_with> ?coworker . } }`)
	fmt.Println("rows:", res.Len())
	// Output: rows: 4
}

// ExampleDB_DualSimulate_pattern simulates a pattern graph without
// SPARQL operators: the basic graph pattern whose triple patterns are its
// edges (a constant would stand where the pattern binds a node).
func ExampleDB_DualSimulate_pattern() {
	db, _ := dualsim.Open(movieGraph())
	defer db.Close()
	q := dualsim.MustParseQuery(`SELECT * WHERE {
	  ?director <directed> ?movie .
	  ?director <worked_with> ?coworker . }`)

	rel, _ := db.DualSimulate(context.Background(), q)
	fmt.Println("movies:", len(rel.Candidates("movie")))
	// Output: movies: 2
}

// ExampleIsWellDesigned classifies the paper's example queries.
func ExampleIsWellDesigned() {
	x2 := dualsim.MustParseQuery(`SELECT * WHERE {
	  ?d <directed> ?m OPTIONAL { ?d <worked_with> ?c } }`)
	x3 := dualsim.MustParseQuery(`SELECT * WHERE {
	  { { ?v1 <a> ?v2 } OPTIONAL { ?v3 <b> ?v2 } } { ?v3 <c> ?v4 } }`)
	fmt.Println(dualsim.IsWellDesigned(x2), dualsim.IsWellDesigned(x3))
	// Output: true false
}
