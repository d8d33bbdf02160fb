// Command dualsim loads a graph database and processes a query with dual
// simulation:
//
//	dualsim -data db.nt -q 'SELECT * WHERE { ?d <directed> ?m }'        # evaluate
//	dualsim -data db.nt -query q.rq -prune                              # pruned evaluation
//	dualsim -data db.nt -q '…' -mode simulate                           # candidate sets
//	dualsim -data db.nt -q '…' -limit 20                                # first 20 result rows
//	dualsim -data db.nt -q '…' -prune -fingerprint 2 -timeout 30s       # full pipeline, bounded
//	dualsim -data db.nt -q '…' -apply new.nt -del gone.nt               # live update: query, apply, re-query
//	dualsim -top -server http://localhost:8080 -interval 2s             # live workload statistics view
//
// Modes:
//
//	evaluate  (default) print the solution mappings
//	simulate  print per-variable dual simulation candidate counts
//	prune     print pruning statistics; with -out, dump the pruned store
//	analyze   print the query's structural analysis (no -data needed)
//
// -apply and -del read N-Triples files as a live delta: the query runs
// once against the loaded store (epoch 0), the delta is applied —
// deletes before adds, atomically, publishing epoch 1 — and the same
// query runs again through the plan cache, whose epoch-scoped keys force
// a re-plan on the new snapshot. Both runs report the epoch served.
//
// The command is a thin client of the session API: it opens a DB over
// the loaded store, prepares the query once and executes the pipeline
// under a cancellable context — Ctrl-C (or -timeout) interrupts the
// solver and the executor mid-flight.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"dualsim"
	"dualsim/internal/buildinfo"
)

func main() {
	data := flag.String("data", "", "N-Triples database file (required)")
	queryFile := flag.String("query", "", "query file")
	queryText := flag.String("q", "", "inline query text")
	mode := flag.String("mode", "evaluate", "evaluate, simulate, prune or analyze")
	limit := flag.Int("limit", 0, "print at most this many result rows (0 = all)")
	out := flag.String("out", "", "prune mode: write the pruned store here")
	doPrune := flag.Bool("prune", false, "evaluate through the pruning pipeline instead of directly")
	fingerprintK := flag.Int("fingerprint", 0, "with -prune: pre-filter via a k-bounded bisimulation fingerprint (0 = off)")
	workers := flag.Int("workers", 0, "parallelize bit-matrix multiplications over this many goroutines")
	timeout := flag.Duration("timeout", 0, "abort the query after this duration (0 = no deadline)")
	applyFile := flag.String("apply", "", "N-Triples file of triples to add as a live delta after the first run")
	delFile := flag.String("del", "", "N-Triples file of triples to delete as a live delta after the first run")
	compactAt := flag.Int("compactat", 0, "auto-compact the update overlay at this ledger size (0 = manual)")
	top := flag.Bool("top", false, "show a server's workload statistics table (GET /v1/debug/statements) instead of running a query")
	serverURL := flag.String("server", "http://localhost:8080", "with -top: daemon or router base URL")
	interval := flag.Duration("interval", 0, "with -top: refresh period (0 = print once and exit)")
	version := flag.Bool("version", false, "print build version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("dualsim"))
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *top {
		if err := runTop(ctx, *serverURL, *interval, *limit, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "dualsim:", err)
			os.Exit(1)
		}
		return
	}

	cfg := cliConfig{
		data: *data, queryFile: *queryFile, queryText: *queryText,
		mode: *mode, limit: *limit, out: *out,
		prune: *doPrune, fingerprintK: *fingerprintK, workers: *workers,
		applyFile: *applyFile, delFile: *delFile, compactAt: *compactAt,
	}
	// Every failure — parse, exec, apply, I/O — exits non-zero with the
	// error on stderr; a clean run exits 0. TestMainExitCodes pins this
	// contract at the process level.
	if err := run(ctx, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "dualsim:", err)
		os.Exit(1)
	}
}

// cliConfig carries the parsed flags.
type cliConfig struct {
	data, queryFile, queryText string
	mode                       string
	limit                      int
	out                        string
	prune                      bool
	fingerprintK               int
	workers                    int
	applyFile, delFile         string
	compactAt                  int
}

func run(ctx context.Context, cfg cliConfig) error {
	src := cfg.queryText
	if src == "" {
		if cfg.queryFile == "" {
			return fmt.Errorf("provide -q or -query")
		}
		b, err := os.ReadFile(cfg.queryFile)
		if err != nil {
			return err
		}
		src = string(b)
	}
	liveUpdate := cfg.applyFile != "" || cfg.delFile != ""
	if liveUpdate && cfg.mode != "evaluate" {
		return fmt.Errorf("-apply/-del run the query-update-requery flow; they require the evaluate mode")
	}
	q, err := dualsim.ParseQuery(src)
	if err != nil {
		return err
	}
	if cfg.mode == "analyze" {
		return runAnalyze(q)
	}

	if cfg.data == "" {
		return fmt.Errorf("-data is required")
	}
	f, err := os.Open(cfg.data)
	if err != nil {
		return err
	}
	defer f.Close()
	start := time.Now()
	st, err := dualsim.LoadNTriples(f)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "loaded %d triples, %d nodes, %d predicates in %v\n",
		st.NumTriples(), st.NumNodes(), st.NumPreds(), time.Since(start).Round(time.Millisecond))

	db, err := openSession(st, cfg)
	if err != nil {
		return err
	}
	defer db.Close()

	switch cfg.mode {
	case "simulate":
		return runSimulate(ctx, db, q)
	case "prune":
		return runPrune(ctx, db, q, cfg.out)
	case "evaluate":
		if liveUpdate {
			return runLiveUpdate(ctx, db, src, cfg)
		}
		return runEvaluate(ctx, db, q, cfg.limit)
	default:
		return fmt.Errorf("unknown mode %q", cfg.mode)
	}
}

// loadTriples reads an optional N-Triples file ("" yields nil).
func loadTriples(path string) ([]dualsim.Triple, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dualsim.ReadNTriples(f)
}

// runLiveUpdate is the read/write walkthrough: query at the loaded
// epoch, apply the -apply/-del delta, re-query — the epoch-scoped plan
// cache re-plans on the new snapshot.
func runLiveUpdate(ctx context.Context, db *dualsim.DB, src string, cfg cliConfig) error {
	adds, err := loadTriples(cfg.applyFile)
	if err != nil {
		return err
	}
	dels, err := loadTriples(cfg.delFile)
	if err != nil {
		return err
	}

	res, stats, err := db.Query(ctx, src)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "epoch %d: %d results in %v\n",
		stats.Epoch, res.Len(), stats.Duration.Round(time.Microsecond))
	printRows(res, db.Store(), cfg.limit)

	as, err := db.Apply(ctx, dualsim.Delta{Adds: adds, Dels: dels})
	if err != nil {
		return err
	}
	compacted := ""
	if as.Compacted {
		compacted = ", compacted"
	}
	fmt.Fprintf(os.Stderr, "applied delta in %v: epoch %d, +%d/−%d triples, overlay %d%s\n",
		as.Duration.Round(time.Microsecond), as.Epoch, as.Added, as.Deleted, as.OverlaySize, compacted)

	res, stats, err = db.Query(ctx, src)
	if err != nil {
		return err
	}
	if stats.CacheHit {
		return fmt.Errorf("post-update query was served a pre-update plan (epoch %d)", stats.Epoch)
	}
	fmt.Fprintf(os.Stderr, "epoch %d: %d results in %v (plan re-built for the new epoch)\n",
		stats.Epoch, res.Len(), stats.Duration.Round(time.Microsecond))
	printRows(res, db.Store(), cfg.limit)
	return nil
}

// liveUpdatePlanCache is the plan cache the -apply/-del flow re-queries
// through; its epoch-scoped keys force the re-plan the flow reports.
const liveUpdatePlanCache = 64

// openSession maps the flags onto session options.
func openSession(st *dualsim.Store, cfg cliConfig) (*dualsim.DB, error) {
	opts := []dualsim.Option{
		dualsim.WithPruning(cfg.prune || cfg.mode == "prune"),
		dualsim.WithPlanCache(liveUpdatePlanCache),
	}
	if cfg.workers > 0 {
		opts = append(opts, dualsim.WithWorkers(cfg.workers))
	}
	if cfg.fingerprintK != 0 {
		if !cfg.prune && cfg.mode != "prune" {
			return nil, fmt.Errorf("-fingerprint pre-filters the pruning solve; combine it with -prune")
		}
		opts = append(opts, dualsim.WithFingerprint(cfg.fingerprintK))
	}
	if cfg.compactAt > 0 {
		opts = append(opts, dualsim.WithCompactionThreshold(cfg.compactAt))
	}
	return dualsim.Open(st, opts...)
}

// printRows renders up to limit result rows (0 = all).
func printRows(res *dualsim.Result, st *dualsim.Store, limit int) {
	rows := res.Rows
	if limit > 0 && len(rows) > limit {
		rows = rows[:limit]
	}
	shown := &dualsim.Result{Vars: res.Vars, Rows: rows}
	fmt.Print(shown.Format(st))
}

func runAnalyze(q *dualsim.Query) error {
	fmt.Printf("query: %s\n", q)
	vars := dualsim.QueryVars(q)
	mand := dualsim.MandatoryVars(q)
	mandSet := make(map[string]bool, len(mand))
	for _, v := range mand {
		mandSet[v] = true
	}
	fmt.Printf("variables (%d):\n", len(vars))
	for _, v := range vars {
		role := "optional"
		if mandSet[v] {
			role = "mandatory"
		}
		fmt.Printf("  ?%-16s %s\n", v, role)
	}
	fmt.Printf("well-designed: %v\n", dualsim.IsWellDesigned(q))
	return nil
}

func runSimulate(ctx context.Context, db *dualsim.DB, q *dualsim.Query) error {
	start := time.Now()
	rel, err := db.DualSimulate(ctx, q)
	if err != nil {
		return err
	}
	stats := rel.Stats()
	fmt.Printf("largest dual simulation computed in %v (%d rounds, %d evaluations)\n",
		time.Since(start).Round(time.Microsecond), stats.Rounds, stats.Evaluations)
	for _, v := range dualsim.QueryVars(q) {
		fmt.Printf("  ?%-20s %d candidates\n", v, rel.CandidateCount(v))
	}
	if rel.Empty() {
		fmt.Println("the query is unsatisfiable (empty mandatory core)")
	}
	return nil
}

func runPrune(ctx context.Context, db *dualsim.DB, q *dualsim.Query, out string) error {
	start := time.Now()
	p, err := db.Prune(ctx, q)
	if err != nil {
		return err
	}
	fmt.Printf("pruning computed in %v\n", time.Since(start).Round(time.Microsecond))
	fmt.Printf("  triples before: %d\n", p.Total())
	fmt.Printf("  triples after:  %d\n", p.Kept())
	fmt.Printf("  pruned:         %.2f%%\n", 100*p.Ratio())
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := dualsim.DumpNTriples(f, p.Store()); err != nil {
			return err
		}
		fmt.Printf("  pruned store written to %s\n", out)
	}
	return nil
}

func runEvaluate(ctx context.Context, db *dualsim.DB, q *dualsim.Query, limit int) error {
	pq, err := db.PrepareQuery(q)
	if err != nil {
		return err
	}
	res, stats, err := pq.Exec(ctx)
	if err != nil {
		return err
	}
	for _, ss := range stats.Stages {
		if ss.Skipped {
			continue
		}
		fmt.Fprintf(os.Stderr, "%-11s %8v  %d -> %d\n", ss.Name, ss.Duration.Round(time.Microsecond), ss.In, ss.Out)
	}
	fmt.Fprintf(os.Stderr, "%d results in %v (epoch %d)\n",
		res.Len(), stats.Duration.Round(time.Microsecond), stats.Epoch)
	printRows(res, db.Store(), limit)
	return nil
}
