// Command dualsimd serves a graph database over HTTP — the network
// front end of the dual-simulation engine — or fronts a cluster of them
// as its scatter-gather router:
//
//	dualsimd -store db.nt -addr :8321
//	dualsimd -store db.nt -data /var/lib/dualsim     # durable serving
//	dualsimd -data /var/lib/dualsim                  # warm restart
//	dualsimd -store db.nt -shard 0/2                 # serve one cluster shard
//	dualsimd -follow http://primary:8321 -maxlag 2   # WAL-streaming read replica
//	dualsimd -route http://s0:8321,http://s0-replica:8322 \
//	         -route http://s1:8321 -addr :8320       # cluster router
//	dualsimd -store db.nt -addr 127.0.0.1:0 -maxinflight 16
//	dualsimd -store db.nt -slowlog 50ms -debugaddr :6060
//
// Endpoints (see internal/server for the wire format):
//
//	POST /v1/query        query via the plan cache, answered as NDJSON rows
//	POST /v1/apply        live delta (dels before adds, atomic, epoch++)
//	POST /v1/compact      compact the store (dead terms reclaimed)
//	POST /v1/checkpoint   roll the WAL into a fresh on-disk snapshot
//	GET  /v1/snapshot     epoch + store shape
//	GET  /v1/export       predicate slices as a DSIMSNP1 container (the router's gather path)
//	GET  /v1/wal          a WAL file of the records after fromEpoch, CRC per record (replica streaming; durable only)
//	GET  /v1/wal/snapshot binary snapshot (replica bootstrap)
//	GET  /healthz         liveness (always 200 while the process runs)
//	GET  /readyz          readiness (503 while draining, bootstrapping or lagging)
//	GET  /metrics         Prometheus-style metrics
//	GET  /v1/debug/statements  per-statement workload statistics (?reset=1)
//	GET  /v1/debug/slow   slow-query ring (-slowlog)
//	GET  /v1/cluster      per-shard endpoint health, epochs, latencies (router only)
//
// The daemon is a thin shell over the session layer: one dualsim.DB
// serves every request with the library's session defaults — pruning
// on, a 128-entry plan cache — compaction every 1024 changed triples
// (and on POST /v1/compact), and -maxquerymem as the one session
// setting; admission control
// (-maxinflight, -queuedepth) sheds overload with 429 + Retry-After.
// -slowlog D keeps the recent queries that took at least D (0s keeps
// every query) at GET /v1/debug/slow; without it the log is off.
//
// With -data the database is durable: every acknowledged apply is
// WAL-logged (fsync'd) into the data dir, every 1024 records (and
// every compaction) are rolled into a binary snapshot, and a restart
// against the same dir warm starts — latest snapshot + WAL tail, same
// epoch sequence, no re-parsing of the original N-Triples input
// (-store is then only needed for the very first boot and is ignored
// once the dir holds state).
//
// With -shard i/N the daemon serves shard i of an N-way predicate-hash
// partitioning: the -store input is filtered to the triples whose
// predicates place on this shard (see internal/cluster), and a
// dualsimd -route fans queries over the N daemons. A durable shard
// persists its filtered state, so a warm restart needs no -shard.
//
// With -follow the daemon is a read replica: it bootstraps a session
// from the primary's streamed snapshot, tails GET /v1/wal, replays
// every record, and serves reads only (mutations answer 403). Every
// request is answered from the session the replication loop holds when
// it arrives, so after a re-bootstrap the next request reads the new
// one. /readyz stays 503 until the first bootstrap completes and
// whenever the replica lags the primary by more than -maxlag epochs.
//
// With -route the daemon holds no session: it is the cluster's router
// (internal/cluster/router), speaking the same protocol over the
// shards. Each -route flag lists one shard's endpoints, comma-separated,
// primary first; the flag order is the shard order and must match the
// -shard i/N partitioning the shard daemons were loaded with. Writes go
// to primaries; reads round-robin over endpoints that are up, ready and
// within -maxlag epochs of the shard's freshest known epoch, failing
// over when an endpoint dies mid-request. Endpoints are probed once a
// second; GET /v1/cluster reports their health, epochs and latencies,
// and /readyz stays 503 until every shard has a routable endpoint.
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
	"strings"
	"time"

	"dualsim"
	"dualsim/internal/buildinfo"
	"dualsim/internal/cluster"
	"dualsim/internal/cluster/router"
	"dualsim/internal/persist"
	"dualsim/internal/server"
)

func main() {
	cfg, err := parseFlags(os.Args[1:], flag.ExitOnError)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dualsimd:", err)
		os.Exit(2)
	}
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
	addr         string
	store        string
	data         string
	maxInFlight  int
	queueDepth   int
	timeout      time.Duration
	drainTimeout time.Duration
	maxQueryMem  int64
	shard        string
	follow       string
	route        endpointLists
	maxLag       uint64
	debugAddr    string
	accessLog    string
	slowLog      time.Duration
	version      bool

	// given names the flags set on the command line: -slowlog turns the
	// log on by its presence, and -route refuses -maxquerymem.
	given map[string]bool
}

// endpointLists collects repeated -route flags, each one shard's
// comma-separated endpoints (primary first).
type endpointLists [][]string

func (l *endpointLists) String() string { return fmt.Sprint([][]string(*l)) }

func (l *endpointLists) Set(v string) error {
	var eps []string
	for _, u := range strings.Split(v, ",") {
		u = strings.TrimSpace(u)
		if u == "" {
			return fmt.Errorf("empty endpoint in %q", v)
		}
		eps = append(eps, u)
	}
	*l = append(*l, eps)
	return nil
}

func parseFlags(args []string, onError flag.ErrorHandling) (daemonConfig, error) {
	fs := flag.NewFlagSet("dualsimd", onError)
	cfg := daemonConfig{}
	fs.StringVar(&cfg.addr, "addr", "127.0.0.1:8321", "listen address (host:port; port 0 picks a free one)")
	fs.StringVar(&cfg.store, "store", "", "N-Triples database file (required unless -data holds state)")
	fs.StringVar(&cfg.data, "data", "", "durable data dir: snapshot + WAL; warm restart when it holds state")
	fs.IntVar(&cfg.maxInFlight, "maxinflight", 0, "concurrently executing requests (0 = 2×GOMAXPROCS)")
	fs.IntVar(&cfg.queueDepth, "queuedepth", 64, "requests waiting for a slot before shedding with 429")
	fs.DurationVar(&cfg.timeout, "timeout", 0, "default per-request execution bound (0 = none; requests may set timeoutMs)")
	fs.DurationVar(&cfg.drainTimeout, "draintimeout", 10*time.Second, "grace period for in-flight queries on shutdown")
	fs.Int64Var(&cfg.maxQueryMem, "maxquerymem", 0, "per-query memory budget in bytes for executor buffering (0 = unbudgeted; exceeded → 413)")
	fs.StringVar(&cfg.shard, "shard", "", "serve shard i of an N-way predicate partitioning (\"i/N\"; filters -store)")
	fs.StringVar(&cfg.follow, "follow", "", "run as a read replica of the primary dualsimd at this URL")
	fs.Var(&cfg.route, "route", "run as the cluster router; one shard's endpoints, comma-separated, primary first (repeat per shard, in shard order)")
	fs.Uint64Var(&cfg.maxLag, "maxlag", 0, "epochs of replica staleness: -follow reports not ready beyond it, -route reads no replica beyond it")
	fs.StringVar(&cfg.debugAddr, "debugaddr", "", "serve pprof, /v1/debug/slow and /v1/debug/statements on this extra address (off the serving listener)")
	fs.StringVar(&cfg.accessLog, "accesslog", "", "write a JSON access log to this file (\"-\" for stdout)")
	fs.Func("slowlog", "keep the recent queries at least this slow at GET /v1/debug/slow (0s = all; off unless given)", func(v string) (err error) {
		if strings.Trim(v, "+-") == "0" { // "-slowlog 0" reads as "off"; every query takes 0s
			return fmt.Errorf("a threshold needs a unit: 0s keeps every query, no -slowlog keeps none")
		}
		cfg.slowLog, err = time.ParseDuration(v)
		return err
	})
	fs.BoolVar(&cfg.version, "version", false, "print build version and exit")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	cfg.given = map[string]bool{}
	fs.Visit(func(f *flag.Flag) { cfg.given[f.Name] = true })
	return cfg, nil
}

// run opens the session (cold from -store, or warm from -data), serves
// until ctx is cancelled or a termination signal arrives, then drains
// and exits. When ready is non-nil, the bound address is sent on it once
// the listener is up (the hook the tests and -addr :0 users rely on).
func run(ctx context.Context, cfg daemonConfig, logw *os.File, ready chan<- string) (err error) {
	switch {
	case len(cfg.route) > 0:
		if cfg.store != "" || cfg.data != "" || cfg.shard != "" || cfg.follow != "" {
			return fmt.Errorf("-route runs the cluster router over shard daemons; it conflicts with -store, -data, -shard and -follow")
		}
		if cfg.given["maxquerymem"] {
			return fmt.Errorf("-route opens no session; -maxquerymem does not apply")
		}
		return runRouter(ctx, cfg, logw, ready)
	case cfg.follow != "":
		if cfg.store != "" || cfg.data != "" || cfg.shard != "" {
			return fmt.Errorf("-follow runs a read replica fed by the primary's WAL; it conflicts with -store, -data and -shard")
		}
		return runFollower(ctx, cfg, logw, ready)
	case cfg.maxLag != 0:
		return fmt.Errorf("-maxlag is a replica staleness bound; it requires -follow or -route")
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
	return serveAndDrain(ctx, cfg, srv.Core, logw, ready, func() error {
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

// runFollower serves a WAL-streaming read replica: the follower serves
// an empty session at epoch 0 (reporting not ready) until its
// replication loop bootstraps from the primary, and the server answers
// every request from the follower's current session. No final
// checkpoint on shutdown — the replica's durability IS the primary's
// WAL.
func runFollower(ctx context.Context, cfg daemonConfig, logw *os.File, ready chan<- string) error {
	f, err := cluster.Follow(cfg.follow,
		cluster.WithMaxLag(cfg.maxLag),
		cluster.WithSessionOptions(sessionOptions(cfg)...),
		cluster.WithLogf(func(format string, args ...any) {
			fmt.Fprintf(logw, "dualsimd: "+format+"\n", args...)
		}),
	)
	if err != nil {
		return err
	}
	srv, err := server.NewReplica(f, serverOptions(cfg)...)
	if err != nil {
		return err
	}
	reg := srv.Registry()
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

	return serveAndDrain(ctx, cfg, srv.Core, logw, ready, func() error {
		stopFollowing()
		<-followErr // replication has stopped; sessions are non-durable
		return f.DB().Close()
	})
}

// runRouter serves the scatter-gather router over the -route shards. It
// probes every endpoint once before listening, so the first request
// routes on real health, and re-probes once a second while it serves.
func runRouter(ctx context.Context, cfg daemonConfig, logw *os.File, ready chan<- string) error {
	rt, err := router.New(cfg.route, router.WithMaxLag(cfg.maxLag), router.WithProtocol(serverOptions(cfg)...))
	if err != nil {
		return err
	}
	for i, eps := range cfg.route {
		fmt.Fprintf(logw, "dualsimd: shard %d/%d: %s\n", i, len(cfg.route), strings.Join(eps, ", "))
	}

	probeCtx, stopProbes := context.WithCancel(ctx)
	rt.Probe(probeCtx)
	probing := make(chan struct{})
	go func() {
		defer close(probing)
		_ = rt.Run(probeCtx) // returns only once probeCtx is cancelled
	}()
	defer func() {
		stopProbes()
		<-probing
	}()

	return serveAndDrain(ctx, cfg, rt.Core, logw, ready, nil)
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
	if cfg.given["slowlog"] {
		opts = append(opts, server.WithSlowQueryLog(cfg.slowLog))
	}
	return opts
}

// serveAndDrain hands the protocol core to the shared listen/serve/drain
// loop with the daemon's flags.
func serveAndDrain(ctx context.Context, cfg daemonConfig, core *server.Core, logw *os.File, ready chan<- string, final func() error) error {
	return core.Serve(ctx, server.Listen{
		Name: "dualsimd", Addr: cfg.addr, DebugAddr: cfg.debugAddr,
		AccessLog: cfg.accessLog, DrainTimeout: cfg.drainTimeout,
	}, logw, ready, final)
}

// openSession boots the database. A -data dir that already holds state
// wins over -store: the daemon warm starts from the latest snapshot
// plus the WAL tail, preserving the epoch sequence, without re-parsing
// the N-Triples input.
func openSession(cfg daemonConfig, logw *os.File) (*dualsim.DB, error) {
	opts := sessionOptions(cfg)
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
		fmt.Fprintf(logw, "durable: data dir %s\n", cfg.data)
	}
	return dualsim.Open(st, opts...)
}

// compactEvery is the daemon's compaction cadence in changed triples:
// the value the benchmark's serve_mixed workload runs with.
const compactEvery = 1024

// sessionOptions is the daemon's session: the library defaults, the
// fixed compaction cadence and -maxquerymem (0 = unbudgeted).
func sessionOptions(cfg daemonConfig) []dualsim.Option {
	return []dualsim.Option{dualsim.WithCompactionThreshold(compactEvery), dualsim.WithMaxQueryMemory(cfg.maxQueryMem)}
}
