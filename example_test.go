package dualsim_test

import (
	"context"
	"fmt"
	"os"
	"sort"

	"dualsim"
	"dualsim/internal/queries"
)

// The paper's introductory query (X1) and its optional variant (X2).
const (
	queryX1 = `SELECT * WHERE {
	  ?director <directed> ?movie .
	  ?director <worked_with> ?coworker . }`
	queryX2 = `SELECT * WHERE {
	  ?director <directed> ?movie .
	  OPTIONAL { ?director <worked_with> ?coworker . } }`
)

// movieGraph is the running example of the paper: the movie database of
// Fig. 1(a), 20 triples.
func movieGraph() *dualsim.Store {
	st, err := dualsim.FromTriples(queries.Fig1aTriples())
	if err != nil {
		panic(err)
	}
	return st
}

// newJob is the delta the live-update examples apply: a director with a
// movie and a coworker, so (X1) gains a row.
var newJob = dualsim.Delta{Adds: []dualsim.Triple{
	dualsim.T("J._McTiernan", "directed", "Die_Hard"),
	dualsim.T("J._McTiernan", "worked_with", "S._de_Souza"),
}}

// ExampleOpen shows the session flow: Open a DB over the store, Prepare
// a query once, Exec(ctx) the pruning pipeline any number of times. The
// dual simulation disqualifies 16 of the 20 triples.
func ExampleOpen() {
	db, _ := dualsim.Open(movieGraph())
	defer db.Close()

	pq, _ := db.Prepare(queryX1)
	res, stats, _ := pq.Exec(context.Background())
	fmt.Printf("%d rows; %d of %d triples survived pruning\n",
		res.Len(), stats.TriplesAfter, stats.TriplesBefore)
	// Output: 2 rows; 4 of 20 triples survived pruning
}

// ExampleDB_Exec runs a one-shot query with per-stage statistics: (X2),
// where D. Koepp and T. Young match without a coworker.
func ExampleDB_Exec() {
	db, _ := dualsim.Open(movieGraph())
	defer db.Close()

	res, stats, _ := db.Exec(context.Background(), queryX2)
	fmt.Println("rows:", res.Len())
	for _, ss := range stats.Stages {
		fmt.Printf("%s: %d -> %d\n", ss.Name, ss.In, ss.Out)
	}
	// Output:
	// rows: 4
	// prune: 20 -> 6
	// evaluate: 6 -> 4
}

// ExampleDB_DualSimulate computes the largest dual simulation of the
// paper's query (X1) — its relation (2).
func ExampleDB_DualSimulate() {
	db, _ := dualsim.Open(movieGraph())
	defer db.Close()
	q := dualsim.MustParseQuery(queryX1)

	rel, _ := db.DualSimulate(context.Background(), q)
	for _, v := range dualsim.QueryVars(q) {
		var names []string
		for _, t := range rel.Candidates(v) {
			names = append(names, t.Value)
		}
		sort.Strings(names)
		fmt.Printf("?%s %v\n", v, names)
	}
	// Output:
	// ?coworker [D._Koepp H._Saltzman]
	// ?director [B._De_Palma G._Hamilton]
	// ?movie [Goldfinger Mission:_Impossible]
}

// ExampleDB_Prune reduces the database to the triples that can
// participate in a match; the pipeline evaluates on that view and answers
// as the full store does (Theorem 2).
func ExampleDB_Prune() {
	st := movieGraph()
	db, _ := dualsim.Open(st)
	defer db.Close()
	ctx := context.Background()

	p, _ := db.Prune(ctx, dualsim.MustParseQuery(queryX1))
	fmt.Printf("%d of %d triples survive\n", p.Kept(), p.Total())

	unpruned, _ := dualsim.Open(st, dualsim.WithPruning(false))
	defer unpruned.Close()
	pruned, _, _ := db.Exec(ctx, queryX1)
	full, _, _ := unpruned.Exec(ctx, queryX1)
	fmt.Println("identical results:", full.Equal(pruned))
	// Output:
	// 4 of 20 triples survive
	// identical results: true
}

// ExampleWithPruning runs an OPTIONAL query under the formal set
// semantics, without the pruning stage.
func ExampleWithPruning() {
	db, _ := dualsim.Open(movieGraph(), dualsim.WithPruning(false))
	defer db.Close()

	res, _, _ := db.Exec(context.Background(), queryX2)
	fmt.Println("rows:", res.Len())
	// Output: rows: 4
}

// ExampleDB_DualSimulate_pattern simulates a pattern graph without
// SPARQL operators: the basic graph pattern whose triple patterns are its
// edges (a constant would stand where the pattern binds a node).
func ExampleDB_DualSimulate_pattern() {
	db, _ := dualsim.Open(movieGraph())
	defer db.Close()

	rel, _ := db.DualSimulate(context.Background(), dualsim.MustParseQuery(queryX1))
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

// ExampleDB_Query serves repeated query text from the session's LRU plan
// cache: only the first call parses and plans.
func ExampleDB_Query() {
	db, _ := dualsim.Open(movieGraph(), dualsim.WithPlanCache(8))
	defer db.Close()

	for i := 0; i < 3; i++ {
		res, stats, _ := db.Query(context.Background(), queryX1)
		fmt.Printf("%d rows, cache hit %v\n", res.Len(), stats.CacheHit)
	}
	cs := db.CacheStats()
	fmt.Printf("%d hits, %d miss, %d plan build\n", cs.Hits, cs.Misses, db.PlanBuilds())
	// Output:
	// 2 rows, cache hit false
	// 2 rows, cache hit true
	// 2 rows, cache hit true
	// 2 hits, 1 miss, 1 plan build
}

// ExampleDB_Apply publishes a live update as a new epoch: the same text
// is re-planned and returns the new answer, while a snapshot pinned
// beforehand keeps reading the old epoch.
func ExampleDB_Apply() {
	db, _ := dualsim.Open(movieGraph(), dualsim.WithPlanCache(8))
	defer db.Close()
	ctx := context.Background()
	db.Query(ctx, queryX1) // cached at epoch 0

	pinned := db.Snapshot()
	as, _ := db.Apply(ctx, newJob)
	res, stats, _ := db.Query(ctx, queryX1)
	old, _, _ := pinned.Query(ctx, queryX1)
	fmt.Printf("+%d triples, epoch %d\n", as.Added, as.Epoch)
	fmt.Printf("epoch %d: %d rows (cache hit %v)\n", stats.Epoch, res.Len(), stats.CacheHit)
	fmt.Printf("pinned epoch %d: %d rows\n", pinned.Epoch(), old.Len())
	// Output:
	// +2 triples, epoch 1
	// epoch 1: 3 rows (cache hit false)
	// pinned epoch 0: 2 rows
}

// ExampleOpenDir warm-starts a durable database: every Apply is logged
// to the data dir's WAL before it is acknowledged, and OpenDir reopens
// the directory at the same epoch with the same answers, no N-Triples
// re-parse. dualsimd does the same with -data.
func ExampleOpenDir() {
	dir, err := os.MkdirTemp("", "dualsim-example-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	ctx := context.Background()

	db, _ := dualsim.Open(movieGraph(), dualsim.WithDataDir(dir))
	as, _ := db.Apply(ctx, newJob)
	fmt.Printf("durable apply: epoch %d, WAL written %v\n", as.Epoch, as.WALBytes > 0)
	db.Close()

	warm, err := dualsim.OpenDir(dir)
	if err != nil {
		panic(err)
	}
	defer warm.Close()
	res, stats, _ := warm.Query(ctx, queryX1)
	fmt.Printf("warm restart: %d rows at epoch %d\n", res.Len(), stats.Epoch)
	// Output:
	// durable apply: epoch 1, WAL written true
	// warm restart: 3 rows at epoch 1
}

// ExamplePreparedQuery_Stream pulls the rows of a FILTER + LIMIT query
// from the streaming executor. The planner sinks each filter conjunct
// below the joins, and ExecStats records its decisions and every
// operator's row counter.
func ExamplePreparedQuery_Stream() {
	st := movieGraph()
	db, _ := dualsim.Open(st)
	defer db.Close()
	pq, _ := db.Prepare(`SELECT * WHERE {
	  ?director <directed> ?movie .
	  ?director <born_in> ?city .
	  ?city <population> ?pop .
	  FILTER(?pop > 100000 && ?director != <G._Hamilton>) } LIMIT 3`)

	rows, _ := pq.Stream(context.Background())
	for rows.Next() {
		var vals []string
		for _, id := range rows.Row() {
			vals = append(vals, st.Term(id).Value)
		}
		fmt.Println(vals)
	}
	if err := rows.Err(); err != nil {
		panic(err)
	}
	rows.Close()
	stats := rows.Stats()
	for _, d := range stats.PlanDecisions {
		fmt.Println(d)
	}
	for _, op := range stats.Operators {
		fmt.Printf("%s %s rows=%d\n", op.Op, op.Detail, op.Rows)
	}
	// Output:
	// [B._De_Palma Mission:_Impossible Newark 277140]
	// filter: pushed ?pop > "100000" below join/union
	// filter: pushed ?director != <G._Hamilton> below join/union
	// scan ?director <directed> ?movie . rows=2
	// filter ?director != <G._Hamilton> rows=1
	// extend ?director <born_in> ?city . rows=1
	// extend ?city <population> ?pop . rows=1
	// filter ?pop > "100000" rows=1
	// limit limit 3 rows=1
}

// ExampleDB_Explain renders a plan without executing it. The render is
// deterministic: the same text on the same epoch explains identically.
func ExampleDB_Explain() {
	db, _ := dualsim.Open(movieGraph())
	defer db.Close()

	exp, _ := db.Explain(context.Background(), queryX1)
	fmt.Print(exp.Text())
	// Output:
	// -- epoch 0
	// extend ?director <worked_with> ?coworker . (est 1)
	//   scan ?director <directed> ?movie . (est 2)
}

// ExampleDB_ExplainAnalyze executes a query with per-operator clocks on
// and reports the executed counters and the request's span tree, the
// tree dualsimd returns for a query whose body sets "trace".
func ExampleDB_ExplainAnalyze() {
	db, _ := dualsim.Open(movieGraph())
	defer db.Close()

	an, _ := db.ExplainAnalyze(context.Background(), queryX1)
	for _, op := range an.Operators {
		fmt.Printf("%s %s rows=%d nextCalls=%d\n", op.Op, op.Detail, op.Rows, op.NextCalls)
	}
	fmt.Println("evaluate stage rows:", an.Stats.Trace.Find("evaluate").Counters["out"])
	// Output:
	// scan ?director <directed> ?movie . rows=2 nextCalls=3
	// extend ?director <worked_with> ?coworker . rows=2 nextCalls=2
	// evaluate stage rows: 2
}

// ExamplePreparedQuery_Fingerprint folds spellings of one statement
// into one normalized fingerprint — whitespace, literal values and
// variable names do not count. dualsimd keys its workload statistics
// (GET /v1/debug/statements) on it.
func ExamplePreparedQuery_Fingerprint() {
	db, _ := dualsim.Open(movieGraph())
	defer db.Close()

	for _, src := range []string{
		queryX1,
		"SELECT * WHERE {?d <directed> ?m.\n\t?d <worked_with> ?c.}",
		`SELECT * WHERE { ?who <directed> ?film . ?who <worked_with> ?with . }`,
	} {
		pq, _ := db.Prepare(src)
		fmt.Println(pq.Fingerprint())
	}
	// Output:
	// 0cd2bfd88c1d46a4
	// 0cd2bfd88c1d46a4
	// 0cd2bfd88c1d46a4
}
