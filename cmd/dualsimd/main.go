// Command dualsimd serves a graph database over HTTP — the network
// front end of the dual-simulation engine:
//
//	dualsimd -store db.nt -addr :8321
//	dualsimd -store db.nt -data /var/lib/dualsim     # durable serving
//	dualsimd -data /var/lib/dualsim                  # warm restart
//	dualsimd -store db.nt -shard 0/2                 # serve one cluster shard
//	dualsimd -follow http://primary:8321 -maxlag 2   # WAL-streaming read replica
//	dualsimd -store db.nt -addr 127.0.0.1:0 -plancache 256 -maxinflight 16
//	dualsimd -store db.nt -prune=false
//	dualsimd -store db.nt -compactat 4096 -fingerprint 2
//
// Endpoints (see internal/server for the wire format):
//
//	POST /v1/query        query via the plan cache; ?stream=1 for NDJSON rows
//	POST /v1/batch        concurrent query batch
//	POST /v1/apply        live delta (dels before adds, atomic, epoch++)
//	POST /v1/compact      consolidate the update overlay
//	POST /v1/checkpoint   roll the WAL into a fresh on-disk snapshot
//	GET  /v1/snapshot     epoch + store shape
//	GET  /v1/export       predicate slices (the router's gather path)
//	GET  /v1/wal          WAL tail from an epoch (replica streaming; durable only)
//	GET  /v1/wal/snapshot binary snapshot (replica bootstrap)
//	GET  /healthz         liveness (always 200 while the process runs)
//	GET  /readyz          readiness (503 while draining, bootstrapping or lagging)
//	GET  /metrics         Prometheus-style metrics
//	GET  /v1/debug/statements  per-statement workload statistics (?reset=1)
//
// The daemon is a thin shell over the session layer: one dualsim.DB
// with a plan cache serves every request; admission control
// (-maxinflight, -queuedepth) sheds overload with 429 + Retry-After.
//
// With -data the database is durable: every acknowledged apply is
// WAL-logged (fsync'd) into the data dir, -checkpointevery rolls the
// log into binary snapshots, and a restart against the same dir warm
// starts — latest snapshot + WAL tail, same epoch sequence, no
// re-parsing of the original N-Triples input (-store is then only
// needed for the very first boot and is ignored once the dir holds
// state).
//
// With -shard i/N the daemon serves shard i of an N-way predicate-hash
// partitioning: the -store input is filtered to the triples whose
// predicates place on this shard (see internal/cluster), and
// cmd/dualsimrouter fans queries over the N daemons. A durable shard
// persists its filtered state, so a warm restart needs no -shard.
//
// With -follow the daemon is a read replica: it bootstraps a session
// from the primary's streamed snapshot, tails GET /v1/wal, replays
// every record, and serves reads only (mutations answer 403). /readyz
// stays 503 until the first bootstrap completes and whenever the
// replica lags the primary by more than -maxlag epochs.
//
// On SIGINT/SIGTERM it drains: /readyz flips to 503 so load balancers
// stop routing here (liveness stays green), in-flight queries finish
// (bounded by -draintimeout), a final checkpoint is written when
// durable, then the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"dualsim"
	"dualsim/internal/buildinfo"
	"dualsim/internal/cluster"
	"dualsim/internal/metrics"
	"dualsim/internal/persist"
	"dualsim/internal/server"
)

func main() {
	cfg := parseFlags(os.Args[1:], flag.ExitOnError)
	if cfg.version {
		fmt.Println(buildinfo.String("dualsimd"))
		return
	}
	if err := run(context.Background(), cfg, os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "dualsimd:", err)
		os.Exit(1)
	}
}

// daemonConfig carries the parsed flags.
type daemonConfig struct {
	addr            string
	store           string
	data            string
	prune           bool
	fingerprintK    int
	workers         int
	planCache       int
	batchWorkers    int
	compactAt       int
	checkpointEvery int
	maxInFlight     int
	queueDepth      int
	timeout         time.Duration
	drainTimeout    time.Duration
	maxQueryMem     int64
	stmtStats       int
	shard           string
	follow          string
	maxLag          uint64
	debugAddr       string
	accessLog       string
	slowLog         int
	slowThreshold   time.Duration
	version         bool
}

func parseFlags(args []string, onError flag.ErrorHandling) daemonConfig {
	fs := flag.NewFlagSet("dualsimd", onError)
	cfg := daemonConfig{}
	fs.StringVar(&cfg.addr, "addr", "127.0.0.1:8321", "listen address (host:port; port 0 picks a free one)")
	fs.StringVar(&cfg.store, "store", "", "N-Triples database file (required unless -data holds state)")
	fs.StringVar(&cfg.data, "data", "", "durable data dir: snapshot + WAL; warm restart when it holds state")
	fs.BoolVar(&cfg.prune, "prune", true, "evaluate through the dual-simulation pruning pipeline")
	fs.IntVar(&cfg.fingerprintK, "fingerprint", 0, "pre-filter via a k-bounded bisimulation fingerprint (0 = off)")
	fs.IntVar(&cfg.workers, "workers", 0, "parallelize bit-matrix multiplications over this many goroutines")
	fs.IntVar(&cfg.planCache, "plancache", 128, "LRU plan cache capacity (0 disables)")
	fs.IntVar(&cfg.batchWorkers, "batchworkers", 0, "batch pool width (0 = GOMAXPROCS)")
	fs.IntVar(&cfg.compactAt, "compactat", 0, "auto-compact the update overlay at this ledger size (0 = manual)")
	fs.IntVar(&cfg.checkpointEvery, "checkpointevery", 1024, "with -data, checkpoint every n WAL records (0 = only on compact/demand)")
	fs.IntVar(&cfg.maxInFlight, "maxinflight", 0, "concurrently executing requests (0 = 2×GOMAXPROCS)")
	fs.IntVar(&cfg.queueDepth, "queuedepth", 64, "requests waiting for a slot before shedding with 429")
	fs.DurationVar(&cfg.timeout, "timeout", 0, "default per-request execution bound (0 = none; requests may set timeoutMs)")
	fs.DurationVar(&cfg.drainTimeout, "draintimeout", 10*time.Second, "grace period for in-flight queries on shutdown")
	fs.Int64Var(&cfg.maxQueryMem, "maxquerymem", 0, "per-query memory budget in bytes for executor buffering (0 = unbudgeted; exceeded → 413)")
	fs.IntVar(&cfg.stmtStats, "stmtstats", -1, "workload statistics capacity at GET /v1/debug/statements (-1 = default 256, 0 disables)")
	fs.StringVar(&cfg.shard, "shard", "", "serve shard i of an N-way predicate partitioning (\"i/N\"; filters -store)")
	fs.StringVar(&cfg.follow, "follow", "", "run as a read replica of the primary dualsimd at this URL")
	fs.Uint64Var(&cfg.maxLag, "maxlag", 0, "with -follow, epochs of staleness before /readyz flips to 503")
	fs.StringVar(&cfg.debugAddr, "debugaddr", "", "serve pprof + /v1/debug/slow on this extra address (off the serving listener)")
	fs.StringVar(&cfg.accessLog, "accesslog", "", "write a JSON access log to this file (\"-\" for stdout)")
	fs.IntVar(&cfg.slowLog, "slowlog", 0, "keep this many slow queries at GET /v1/debug/slow (0 disables)")
	fs.DurationVar(&cfg.slowThreshold, "slowthreshold", 0, "with -slowlog, only record queries at least this slow (0 = all)")
	fs.BoolVar(&cfg.version, "version", false, "print build version and exit")
	fs.Parse(args) // ExitOnError in production; tests pass ContinueOnError configs directly
	return cfg
}

// run opens the session (cold from -store, or warm from -data), serves
// until ctx is cancelled or a termination signal arrives, then drains
// and exits. When ready is non-nil, the bound address is sent on it once
// the listener is up (the hook the tests and -addr :0 users rely on).
func run(ctx context.Context, cfg daemonConfig, logw *os.File, ready chan<- string) (err error) {
	if cfg.follow != "" {
		if cfg.store != "" || cfg.data != "" || cfg.shard != "" {
			return fmt.Errorf("-follow runs a read replica fed by the primary's WAL; it conflicts with -store, -data and -shard")
		}
		return runFollower(ctx, cfg, logw, ready)
	}
	if cfg.maxLag != 0 {
		return fmt.Errorf("-maxlag is a replica staleness bound; it requires -follow")
	}
	db, err := openSession(cfg, logw)
	if err != nil {
		return err
	}
	// A durable session's Close releases the WAL and the data-dir lock;
	// a failure there must reach the exit status, not vanish.
	defer func() { err = errors.Join(err, db.Close()) }()

	srv, err := server.New(db, serverOptions(cfg)...)
	if err != nil {
		return err
	}
	return serveAndDrain(ctx, cfg, srv, logw, ready, func() error {
		// A final checkpoint after the last request finished: the next
		// boot loads the snapshot directly with nothing to replay.
		if !db.Durable() {
			return nil
		}
		cs, err := db.Checkpoint(context.Background())
		if err != nil {
			return fmt.Errorf("drain checkpoint: %w", err)
		}
		fmt.Fprintf(logw, "dualsimd: checkpointed epoch %d (%d bytes)\n", cs.Epoch, cs.SnapshotBytes)
		return nil
	})
}

// runFollower serves a WAL-streaming read replica: an empty placeholder
// session goes live immediately (reporting not-ready), the replication
// loop bootstraps from the primary and hot-swaps sessions in as it
// catches up. No final checkpoint on shutdown — the replica's
// durability IS the primary's WAL.
func runFollower(ctx context.Context, cfg daemonConfig, logw *os.File, ready chan<- string) (err error) {
	sessOpts, err := sessionOptions(cfg)
	if err != nil {
		return err
	}
	empty, err := dualsim.FromTriples(nil)
	if err != nil {
		return err
	}
	placeholder, err := dualsim.Open(empty, sessOpts...)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, placeholder.Close()) }()

	// The follower and the server need each other (readiness hook one
	// way, session hot-swap the other); the closure breaks the cycle.
	var f *cluster.Follower
	reg := metrics.NewRegistry()
	srvOpts := append(serverOptions(cfg),
		server.WithRegistry(reg),
		server.WithReadOnly(),
		server.WithReadiness(func() error {
			if f == nil {
				return errors.New("replica starting")
			}
			return f.Ready()
		}),
	)
	srv, err := server.New(placeholder, srvOpts...)
	if err != nil {
		return err
	}
	f, err = cluster.Follow(cfg.follow,
		cluster.WithMaxLag(cfg.maxLag),
		cluster.WithSessionOptions(sessOpts...),
		cluster.WithOnSwap(srv.SwapDB),
		cluster.WithLogf(func(format string, args ...any) {
			fmt.Fprintf(logw, "dualsimd: "+format+"\n", args...)
		}),
	)
	if err != nil {
		return err
	}
	reg.GaugeFunc("dualsimd_replica_lag", "epochs behind the primary", func() float64 {
		return float64(f.Stats().Lag)
	})
	reg.GaugeFunc("dualsimd_replica_primary_epoch", "primary epoch at the last tail header", func() float64 {
		return float64(f.Stats().PrimaryEpoch)
	})
	reg.GaugeFunc("dualsimd_replica_bootstraps_total", "snapshot bootstraps (>1 means epoch gaps)", func() float64 {
		return float64(f.Stats().Bootstraps)
	})
	reg.GaugeFunc("dualsimd_replica_applied_total", "WAL records replayed into the session", func() float64 {
		return float64(f.Stats().Applied)
	})
	reg.GaugeFunc("dualsimd_replica_gaps_total", "epoch gaps that forced a re-bootstrap", func() float64 {
		return float64(f.Stats().Gaps)
	})

	fctx, stopFollowing := context.WithCancel(ctx)
	defer stopFollowing()
	followErr := make(chan error, 1)
	go func() { followErr <- f.Run(fctx) }()
	fmt.Fprintf(logw, "dualsimd: replica of %s (maxlag %d)\n", cfg.follow, cfg.maxLag)

	err = serveAndDrain(ctx, cfg, srv, logw, ready, func() error {
		stopFollowing()
		<-followErr // replication has stopped; sessions are non-durable
		if db := f.DB(); db != nil {
			return db.Close()
		}
		return nil
	})
	return err
}

// serverOptions maps the serving flags onto server options.
func serverOptions(cfg daemonConfig) []server.Option {
	var opts []server.Option
	if cfg.maxInFlight > 0 {
		opts = append(opts, server.WithMaxInFlight(cfg.maxInFlight))
	}
	// Always passed through: WithQueueDepth validates, so a negative
	// flag value fails loudly instead of silently keeping the default.
	opts = append(opts, server.WithQueueDepth(cfg.queueDepth))
	if cfg.timeout > 0 {
		opts = append(opts, server.WithDefaultTimeout(cfg.timeout))
	}
	if cfg.slowLog > 0 {
		opts = append(opts, server.WithSlowQueryLog(cfg.slowLog, cfg.slowThreshold))
	}
	if cfg.stmtStats >= 0 {
		opts = append(opts, server.WithStatementStats(cfg.stmtStats))
	}
	return opts
}

// serveAndDrain hands the server to the shared listen/serve/drain loop
// with the daemon's flags.
func serveAndDrain(ctx context.Context, cfg daemonConfig, srv *server.Server, logw *os.File, ready chan<- string, final func() error) error {
	return srv.Serve(ctx, server.Listen{
		Name: "dualsimd", Addr: cfg.addr, DebugAddr: cfg.debugAddr,
		AccessLog: cfg.accessLog, DrainTimeout: cfg.drainTimeout,
	}, logw, ready, final)
}

// openSession boots the database. A -data dir that already holds state
// wins over -store: the daemon warm starts from the latest snapshot
// plus the WAL tail, preserving the epoch sequence, without re-parsing
// the N-Triples input.
func openSession(cfg daemonConfig, logw *os.File) (*dualsim.DB, error) {
	opts, err := sessionOptions(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.data != "" && persist.HasState(cfg.data) {
		start := time.Now()
		db, err := dualsim.OpenDir(cfg.data, opts...)
		if err != nil {
			return nil, err
		}
		extra := ""
		if cfg.store != "" {
			extra = fmt.Sprintf(" (-store %s ignored)", cfg.store)
		}
		st := db.Store()
		fmt.Fprintf(logw, "warm start from %s: epoch %d, %d triples, %d nodes, %d predicates in %v%s\n",
			cfg.data, db.Epoch(), st.NumTriples(), st.NumNodes(), st.NumPreds(),
			time.Since(start).Round(time.Millisecond), extra)
		return db, nil
	}
	if cfg.store == "" {
		if cfg.data != "" {
			return nil, fmt.Errorf("-data %s holds no snapshot yet; a cold start needs -store", cfg.data)
		}
		return nil, fmt.Errorf("-store (or a -data dir with state) is required")
	}
	f, err := os.Open(cfg.store)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	st, err := dualsim.LoadNTriples(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if cfg.shard != "" {
		spec, err := cluster.ParseShardSpec(cfg.shard)
		if err != nil {
			return nil, err
		}
		full := st.NumTriples()
		if st, err = cluster.ShardStore(st, spec); err != nil {
			return nil, err
		}
		fmt.Fprintf(logw, "shard %s: kept %d of %d triples (%d predicates)\n",
			spec, st.NumTriples(), full, st.NumPreds())
	}
	fmt.Fprintf(logw, "loaded %d triples, %d nodes, %d predicates in %v\n",
		st.NumTriples(), st.NumNodes(), st.NumPreds(), time.Since(start).Round(time.Millisecond))
	if cfg.data != "" {
		opts = append(opts, dualsim.WithDataDir(cfg.data))
		fmt.Fprintf(logw, "durable: data dir %s (checkpoint every %d applies)\n", cfg.data, cfg.checkpointEvery)
	}
	return dualsim.Open(st, opts...)
}

// sessionOptions maps the flags onto session options (mirrors
// cmd/dualsim).
func sessionOptions(cfg daemonConfig) ([]dualsim.Option, error) {
	opts := []dualsim.Option{dualsim.WithPruning(cfg.prune)}
	if cfg.workers > 0 {
		opts = append(opts, dualsim.WithWorkers(cfg.workers))
	}
	if cfg.fingerprintK != 0 {
		if !cfg.prune {
			return nil, fmt.Errorf("-fingerprint pre-filters the pruning solve; it requires -prune")
		}
		opts = append(opts, dualsim.WithFingerprint(cfg.fingerprintK))
	}
	if cfg.planCache > 0 {
		opts = append(opts, dualsim.WithPlanCache(cfg.planCache))
	}
	if cfg.batchWorkers > 0 {
		opts = append(opts, dualsim.WithBatchWorkers(cfg.batchWorkers))
	}
	if cfg.compactAt > 0 {
		opts = append(opts, dualsim.WithCompactionThreshold(cfg.compactAt))
	}
	if cfg.checkpointEvery != 0 {
		// Harmless on a non-durable session (the option only fires with a
		// WAL); passed through even when negative so the option's
		// validation fails loudly instead of silently ignoring the flag.
		opts = append(opts, dualsim.WithCheckpointEvery(cfg.checkpointEvery))
	}
	if cfg.maxQueryMem != 0 {
		// Passed through even when negative for loud validation.
		opts = append(opts, dualsim.WithMaxQueryMemory(cfg.maxQueryMem))
	}
	return opts, nil
}
