// Quickstart walks through the paper's running example with the session
// API: the movie database of Fig. 1(a), query (X1) and its optional
// variant (X2). A session is opened over the store, each query is
// prepared once, and Exec(ctx) runs the pruning pipeline — the
// per-stage ExecStats expose the dual simulation's effect (16 of 20
// triples disqualified) alongside the final solution mappings. Later
// steps show the serving paths: db.Query resolves repeated query text
// through the session's LRU plan cache (only the first call pays parse
// + planning), Apply publishes live updates as epoch-numbered
// snapshots, and the database is made durable (a WAL-logged apply
// survives Close and OpenDir warm-restarts it from disk at the same
// epoch). Step 8 runs a FILTER + LIMIT query through the streaming
// Volcano executor, printing the cost-based planner's decisions and
// per-operator row counters from ExecStats, step 9 explains a plan
// without executing it (EXPLAIN) and with real executed counters and
// the request's span tree (EXPLAIN ANALYZE), and step 10 reads the
// server's always-on workload statistics — three spellings of (X1)
// folding into one normalized fingerprint. HTTP serving and scale-out
// have examples of their own: examples/serving and examples/cluster.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"dualsim"
	"dualsim/client"
	"dualsim/internal/queries"
	"dualsim/internal/server"
)

const queryX1 = `
SELECT * WHERE {
  ?director <directed> ?movie .
  ?director <worked_with> ?coworker . }`

const queryX2 = `
SELECT * WHERE {
  ?director <directed> ?movie .
  OPTIONAL { ?director <worked_with> ?coworker . } }`

func main() {
	ctx := context.Background()
	st, err := dualsim.FromTriples(queries.Fig1aTriples())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("database: %d triples, %d nodes, %d predicates\n\n",
		st.NumTriples(), st.NumNodes(), st.NumPreds())

	// --- Step 1: open a session ----------------------------------------
	// The session fixes the pipeline for every query prepared on it:
	// dual-sim prune → evaluate on the Volcano executor. The plan cache
	// holds up to 8 prepared plans for the db.Query serving path.
	db, err := dualsim.Open(st, dualsim.WithPlanCache(8))
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// --- Step 2: the largest dual simulation of (X1) -------------------
	q := dualsim.MustParseQuery(queryX1)
	rel, err := db.DualSimulate(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("largest dual simulation of (X1) — the paper's relation (2):")
	for _, v := range dualsim.QueryVars(q) {
		fmt.Printf("  ?%-10s →", v)
		for _, t := range rel.Candidates(v) {
			fmt.Printf(" %s", t.Value)
		}
		fmt.Println()
	}

	// --- Step 3: prepare once, execute the pipeline --------------------
	pq, err := db.PrepareQuery(q)
	if err != nil {
		log.Fatal(err)
	}
	res, stats, err := pq.Exec(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npruning: %d of %d triples survive (%.0f%% pruned)\n",
		stats.TriplesAfter, stats.TriplesBefore, 100*stats.PrunedRatio())
	fmt.Printf("(X1) results (pruned pipeline, %d rows):\n%s", res.Len(), res.Format(st))

	// Identical to evaluating the full store directly (Theorem 2): a
	// session without the pruning stage.
	unpruned, err := dualsim.Open(st, dualsim.WithPruning(false))
	if err != nil {
		log.Fatal(err)
	}
	defer unpruned.Close()
	full, _, err := unpruned.Exec(ctx, queryX1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("identical on the full store: %v\n", full.Equal(res))

	// --- Step 4: the optional variant (X2) ------------------------------
	res2, _, err := db.Exec(ctx, queryX2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n(X2) results (%d rows — D. Koepp and T. Young join without a coworker):\n%s",
		res2.Len(), res2.Format(st))

	if res.Len() != 2 || res2.Len() != 4 || !full.Equal(res) {
		fmt.Fprintln(os.Stderr, "unexpected results")
		os.Exit(1)
	}

	// --- Step 5: the cached serving path --------------------------------
	// db.Query plans (X1) once and serves every repeat from the LRU plan
	// cache; ExecStats.CacheHit and CacheStats expose the traffic.
	for i := 0; i < 3; i++ {
		if _, stats, err := db.Query(ctx, queryX1); err != nil {
			log.Fatal(err)
		} else if i > 0 && !stats.CacheHit {
			fmt.Fprintln(os.Stderr, "expected a plan cache hit")
			os.Exit(1)
		}
	}
	cs := db.CacheStats()
	fmt.Printf("\nserving (X1) three times: %d plan cache hit(s), %d miss(es), %d plan build(s) total\n",
		cs.Hits, cs.Misses, db.PlanBuilds())

	// --- Step 6: live updates -------------------------------------------
	// Apply publishes a new epoch-numbered snapshot; the epoch-scoped
	// plan cache re-plans, so the same text now returns the new answer,
	// while a snapshot pinned beforehand keeps reading the old epoch.
	pinned := db.Snapshot()
	as, err := db.Apply(ctx, dualsim.Delta{Adds: []dualsim.Triple{
		dualsim.T("J._McTiernan", "directed", "Die_Hard"),
		dualsim.T("J._McTiernan", "worked_with", "S._de_Souza"),
	}})
	if err != nil {
		log.Fatal(err)
	}
	newRes, newStats, err := db.Query(ctx, queryX1)
	if err != nil {
		log.Fatal(err)
	}
	oldRes, _, err := pinned.Query(ctx, queryX1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter Apply (+%d triples, epoch %d): (X1) has %d rows at epoch %d, still %d at pinned epoch %d\n",
		as.Added, as.Epoch, newRes.Len(), newStats.Epoch, oldRes.Len(), pinned.Epoch())
	if newRes.Len() != 3 || oldRes.Len() != 2 || newStats.CacheHit {
		fmt.Fprintln(os.Stderr, "live update served inconsistent epochs")
		os.Exit(1)
	}

	// --- Step 7: durable serving ----------------------------------------
	// With a data dir the database survives restarts: every Apply is
	// WAL-logged (fsync'd) before it is acknowledged, checkpoints roll
	// the log into binary snapshots, and OpenDir warm starts from disk —
	// same epoch, same answers, no N-Triples re-parse. In production this
	// is `dualsimd -store db.nt -data /var/lib/dualsim` (and, restarted,
	// just `dualsimd -data /var/lib/dualsim`).
	dataDir, err := os.MkdirTemp("", "dualsim-quickstart-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dataDir)
	dur, err := dualsim.Open(st, dualsim.WithDataDir(dataDir), dualsim.WithPlanCache(8))
	if err != nil {
		log.Fatal(err)
	}
	das, err := dur.Apply(ctx, dualsim.Delta{Adds: []dualsim.Triple{
		dualsim.T("J._McTiernan", "directed", "Die_Hard"),
		dualsim.T("J._McTiernan", "worked_with", "S._de_Souza"),
	}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndurable apply: epoch %d, %d WAL bytes fsync'd in %v\n",
		das.Epoch, das.WALBytes, das.FsyncLatency)
	dur.Close()

	warm, err := dualsim.OpenDir(dataDir, dualsim.WithPlanCache(8))
	if err != nil {
		log.Fatal(err)
	}
	defer warm.Close()
	warmRes, warmStats, err := warm.Query(ctx, queryX1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("warm restart from %s: (X1) has %d rows at epoch %d — no RDF re-parse\n",
		dataDir, warmRes.Len(), warmStats.Epoch)
	if warmRes.Len() != 3 || warmStats.Epoch != das.Epoch {
		fmt.Fprintln(os.Stderr, "warm restart lost state")
		os.Exit(1)
	}

	// --- Step 8: filters, cost-based planning, streaming ----------------
	// The session's executor is the streaming Volcano engine behind the
	// cost-based planner: FILTER and LIMIT/OFFSET are part of the
	// query surface, the planner orders joins sparsest-first and sinks
	// filter conjuncts below the joins that bind their variables, and
	// ExecStats documents each decision plus per-operator row counters.
	// pq.Stream returns a cursor — the first row is available before the
	// last one is computed; dualsimd's ?stream=1 path pulls from the same
	// iterator.
	vdb, err := dualsim.Open(st)
	if err != nil {
		log.Fatal(err)
	}
	defer vdb.Close()
	fpq, err := vdb.Prepare(`
SELECT * WHERE {
  ?director <directed> ?movie .
  ?director <born_in> ?city .
  ?city <population> ?pop .
  FILTER(?pop > 100000 && ?director != <G._Hamilton>) } LIMIT 3`)
	if err != nil {
		log.Fatal(err)
	}
	rows, err := fpq.Stream(ctx)
	if err != nil {
		log.Fatal(err)
	}
	filtered := 0
	for rows.Next() {
		filtered++
	}
	if err := rows.Err(); err != nil {
		log.Fatal(err)
	}
	rows.Close()
	fstats := rows.Stats()
	fmt.Printf("\nfiltered (X1 + population filter) streams %d row(s)\nplanner decisions:\n", filtered)
	for _, d := range fstats.PlanDecisions {
		fmt.Printf("  %s\n", d)
	}
	fmt.Println("operator tree (execution order, with row counters):")
	for _, op := range fstats.Operators {
		fmt.Printf("  %-9s %-32s rows=%d\n", op.Op, op.Detail, op.Rows)
	}
	if filtered != 1 { // only De Palma: Hamilton is filtered out, the rest lack born_in
		fmt.Fprintln(os.Stderr, "expected exactly B. De Palma through the filter")
		os.Exit(1)
	}

	// --- Step 9: observability — EXPLAIN and tracing --------------------
	// db.Explain compiles a query's plan without executing it; the render
	// is deterministic, so the same text against the same epoch always
	// explains identically. ExplainAnalyze executes with per-operator
	// clocks on and reports real row counts plus the request's span tree
	// — the same tree dualsimd returns for `?trace=1` and the router
	// stitches across shards. See examples/tracing for the distributed
	// version.
	exp, err := vdb.Explain(ctx, queryX1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nEXPLAIN (X1):\n%s", exp.Text())
	an, err := vdb.ExplainAnalyze(ctx, queryX1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("EXPLAIN ANALYZE (X1):\n%s", an.Text())
	if ev := an.Stats.Trace.Find("evaluate"); ev != nil {
		fmt.Printf("evaluate stage: %v for %d row(s)\n", ev.Duration.Round(time.Microsecond), ev.Counters["out"])
	}

	// --- Step 10: workload statistics ------------------------------------
	// Every dualsimd aggregates per-statement workload statistics —
	// pg_stat_statements for dualsim: executions are keyed by a
	// normalized fingerprint (whitespace, literal values and variable
	// names do not matter), each key accumulating calls, errors, rows,
	// cache hits, latency quantiles and peak buffered memory. The table
	// is always on (the record path is allocation-free) and served at
	// GET /v1/debug/statements; the router merges it across shards;
	// `dualsim -top` renders it live. A per-query memory budget
	// (-maxquerymem / WithMaxQueryMemory) turns the same accounting into
	// an enforcement point: a query whose buffered state outgrows the
	// budget fails with 413 while the daemon keeps serving.
	ssrv, err := server.New(vdb)
	if err != nil {
		log.Fatal(err)
	}
	sln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	shs := &http.Server{Handler: ssrv}
	go shs.Serve(sln)
	scl, err := client.New("http://" + sln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	// The same statement three ways: verbatim, re-whitespaced, renamed
	// variables — one fingerprint, three calls.
	for _, q := range []string{
		queryX1,
		"SELECT * WHERE {?d <directed> ?m.\n\t?d <worked_with> ?c.}",
		`SELECT * WHERE { ?who <directed> ?film . ?who <worked_with> ?with . }`,
	} {
		if _, err := scl.Query(ctx, q); err != nil {
			log.Fatal(err)
		}
	}
	stmts, err := scl.Statements(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nworkload statistics (%d statement(s) tracked):\n", stmts.Tracked)
	for _, s := range stmts.Statements {
		fmt.Printf("  %s calls=%d rows=%d cached=%d p95=%v  %s\n",
			s.Fingerprint, s.Calls, s.Rows, s.CacheHits, s.P95.Round(time.Microsecond), s.Query)
	}
	shs.Close()
	if stmts.Tracked != 1 || stmts.Statements[0].Calls != 3 {
		fmt.Fprintln(os.Stderr, "expected the three spellings to share one fingerprint")
		os.Exit(1)
	}
}
