// Command dualsimrouter is the scatter-gather front end of a sharded
// dualsimd cluster: it speaks the single-node wire protocol while
// fanning queries over predicate-hash shards and load-balancing reads
// across WAL-streaming replicas.
//
//	dualsimrouter -shard http://shard0:8321 -shard http://shard1:8321
//	dualsimrouter -shard http://s0:8321,http://s0-replica:8322 \
//	              -shard http://s1:8321 -maxlag 2 -addr :8320
//
// Each -shard flag lists one shard's endpoints, comma-separated,
// primary first; the flag order IS the shard order and must match the
// "-shard i/N" partitioning the daemons were loaded with. Writes go to
// primaries; reads round-robin over endpoints that are up, ready and
// within -maxlag epochs of the shard's freshest known epoch, failing
// over when an endpoint dies mid-request.
//
// Endpoints — the protocol core's (internal/server, admission control
// with 429 + Retry-After included) over the routing backend (see
// internal/cluster/router for its semantics):
//
//	POST /v1/query    scattered query; ?stream=1 for NDJSON rows
//	POST /v1/batch    each member routed independently
//	POST /v1/apply    delta split by predicate placement
//	GET  /v1/snapshot aggregated epoch + store shape
//	GET  /v1/cluster  per-shard endpoint health, epochs, latencies
//	GET  /healthz     router liveness
//	GET  /readyz      503 until every shard has a routable endpoint
//	GET  /metrics     router + per-endpoint metrics
//
// On SIGINT/SIGTERM it drains: /readyz flips to 503, in-flight requests
// finish (bounded by -draintimeout), then the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dualsim/internal/buildinfo"
	"dualsim/internal/cluster/router"
	"dualsim/internal/server"
)

func main() {
	cfg, err := parseFlags(os.Args[1:], flag.ExitOnError)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dualsimrouter:", err)
		os.Exit(2)
	}
	if cfg.version {
		fmt.Println(buildinfo.String("dualsimrouter"))
		return
	}
	if err := run(context.Background(), cfg, os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "dualsimrouter:", err)
		os.Exit(1)
	}
}

// routerConfig carries the parsed flags.
type routerConfig struct {
	addr          string
	shards        [][]string
	maxLag        uint64
	probeEvery    time.Duration
	timeout       time.Duration
	drainTimeout  time.Duration
	debugAddr     string
	accessLog     string
	slowLog       int
	slowThreshold time.Duration
	version       bool
}

// shardList collects repeated -shard flags, each a comma-separated
// endpoint list (primary first).
type shardList [][]string

func (s *shardList) String() string { return fmt.Sprint([][]string(*s)) }

func (s *shardList) Set(v string) error {
	var eps []string
	for _, u := range strings.Split(v, ",") {
		u = strings.TrimSpace(u)
		if u == "" {
			return fmt.Errorf("empty endpoint in -shard %q", v)
		}
		eps = append(eps, u)
	}
	*s = append(*s, eps)
	return nil
}

func parseFlags(args []string, onError flag.ErrorHandling) (routerConfig, error) {
	fs := flag.NewFlagSet("dualsimrouter", onError)
	cfg := routerConfig{}
	var shards shardList
	fs.StringVar(&cfg.addr, "addr", "127.0.0.1:8320", "listen address (host:port; port 0 picks a free one)")
	fs.Var(&shards, "shard", "one shard's endpoints, comma-separated, primary first (repeat per shard, in shard order)")
	fs.Uint64Var(&cfg.maxLag, "maxlag", 0, "epochs of replica staleness reads may tolerate")
	fs.DurationVar(&cfg.probeEvery, "probeevery", time.Second, "health-probe period for shard endpoints")
	fs.DurationVar(&cfg.timeout, "timeout", 0, "default per-request bound (0 = none; requests may set timeoutMs)")
	fs.DurationVar(&cfg.drainTimeout, "draintimeout", 10*time.Second, "grace period for in-flight requests on shutdown")
	fs.StringVar(&cfg.debugAddr, "debugaddr", "", "serve pprof + /v1/debug/slow on this extra address (off the serving listener)")
	fs.StringVar(&cfg.accessLog, "accesslog", "", "write a JSON access log to this file (\"-\" for stdout)")
	fs.IntVar(&cfg.slowLog, "slowlog", 0, "keep this many slow queries at GET /v1/debug/slow (0 disables)")
	fs.DurationVar(&cfg.slowThreshold, "slowthreshold", 0, "with -slowlog, only record queries at least this slow (0 = all)")
	fs.BoolVar(&cfg.version, "version", false, "print build version and exit")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	cfg.shards = shards
	if cfg.version {
		return cfg, nil
	}
	if len(cfg.shards) == 0 {
		return cfg, fmt.Errorf("at least one -shard is required")
	}
	return cfg, nil
}

// run builds the router, probes every endpoint once so the first
// request routes on real health, serves until ctx is cancelled or a
// termination signal arrives, then drains.
func run(ctx context.Context, cfg routerConfig, logw *os.File, ready chan<- string) error {
	opts := []router.Option{
		router.WithMaxLag(cfg.maxLag),
		router.WithProbeEvery(cfg.probeEvery),
	}
	if cfg.timeout > 0 {
		opts = append(opts, router.WithProtocol(server.WithDefaultTimeout(cfg.timeout)))
	}
	if cfg.slowLog > 0 {
		opts = append(opts, router.WithProtocol(server.WithSlowQueryLog(cfg.slowLog, cfg.slowThreshold)))
	}
	rt, err := router.New(cfg.shards, opts...)
	if err != nil {
		return err
	}
	for i, eps := range cfg.shards {
		fmt.Fprintf(logw, "dualsimrouter: shard %d/%d: %s\n", i, len(cfg.shards), strings.Join(eps, ", "))
	}

	probeCtx, stopProbes := context.WithCancel(ctx)
	defer stopProbes()
	rt.Probe(probeCtx)
	go rt.Run(probeCtx)

	return rt.Serve(ctx, server.Listen{
		Name: "dualsimrouter", Addr: cfg.addr, DebugAddr: cfg.debugAddr,
		AccessLog: cfg.accessLog, DrainTimeout: cfg.drainTimeout,
	}, logw, ready, nil)
}
