package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"dualsim"
	"dualsim/client"
	"dualsim/internal/cluster"
	"dualsim/internal/queries"
)

// TestMain doubles the test binary as the dualsimd daemon when
// re-executed with DUALSIMD_MAIN=1 — the hook the crash-recovery test
// uses to run (and SIGKILL) a real daemon process.
func TestMain(m *testing.M) {
	if os.Getenv("DUALSIMD_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func fixture(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fig1a.nt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := dualsim.FromTriples(queries.Fig1aTriples())
	if err != nil {
		t.Fatal(err)
	}
	if err := dualsim.DumpNTriples(f, st); err != nil {
		t.Fatal(err)
	}
	return path
}

// startDaemon runs the daemon on a free loopback port and returns a
// client plus a shutdown func that asserts a clean drain.
func startDaemon(t *testing.T, cfg daemonConfig) (*client.Client, func()) {
	t.Helper()
	cfg.addr = "127.0.0.1:0"
	if cfg.drainTimeout == 0 {
		cfg.drainTimeout = 5 * time.Second
	}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() { errc <- run(ctx, cfg, devnull, ready) }()

	var addr string
	select {
	case addr = <-ready:
	case err := <-errc:
		t.Fatalf("daemon died before listening: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	c, err := client.New("http://" + addr)
	if err != nil {
		t.Fatal(err)
	}
	return c, func() {
		cancel() // run treats ctx cancellation like SIGTERM: drain + exit
		select {
		case err := <-errc:
			if err != nil {
				t.Fatalf("drain: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("daemon did not drain")
		}
		devnull.Close()
	}
}

const queryX1 = `SELECT * WHERE { ?d <directed> ?m . ?d <worked_with> ?c . }`

func TestDaemonServesAndDrains(t *testing.T) {
	c, shutdown := startDaemon(t, daemonConfig{store: fixture(t), queueDepth: 8})
	ctx := context.Background()

	h, err := c.Health(ctx)
	if err != nil || h.Status != "ok" {
		t.Fatalf("health: %+v, %v", h, err)
	}
	out, err := c.Query(ctx, queryX1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 2 || out.Epoch != 0 {
		t.Fatalf("query: %d rows, epoch %d", len(out.Rows), out.Epoch)
	}

	// A live delta over the wire, then the streamed read of the result.
	if _, err := c.ApplyDelta(ctx, dualsim.Delta{Adds: []dualsim.Triple{
		dualsim.T("J._McTiernan", "directed", "Die_Hard"),
		dualsim.T("J._McTiernan", "worked_with", "S._de_Souza"),
	}}); err != nil {
		t.Fatal(err)
	}
	st, err := c.QueryStream(ctx, queryX1)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for st.Next() {
		n++
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if n != 3 || st.Epoch() != 1 {
		t.Fatalf("streamed post-apply: %d rows, epoch %d", n, st.Epoch())
	}

	shutdown()
}

// TestDaemonWarmRestart is the acceptance path: a durable daemon is
// drained (writing its final checkpoint) and restarted against the same
// -data dir with NO -store input — it must serve identical query
// results at the same epoch.
func TestDaemonWarmRestart(t *testing.T) {
	dataDir := t.TempDir()
	ctx := context.Background()

	c, shutdown := startDaemon(t, daemonConfig{store: fixture(t), data: dataDir, queueDepth: 8})
	if _, err := c.ApplyDelta(ctx, dualsim.Delta{Adds: []dualsim.Triple{
		dualsim.T("J._McTiernan", "directed", "Die_Hard"),
		dualsim.T("J._McTiernan", "worked_with", "S._de_Souza"),
	}}); err != nil {
		t.Fatal(err)
	}
	out, err := c.Query(ctx, queryX1)
	if err != nil {
		t.Fatal(err)
	}
	wantRows, wantEpoch := len(out.Rows), out.Epoch
	if wantEpoch != 1 {
		t.Fatalf("pre-restart epoch %d, want 1", wantEpoch)
	}
	shutdown() // drains and writes the final checkpoint

	// Second boot: no -store. The dir is the database now.
	c2, shutdown2 := startDaemon(t, daemonConfig{data: dataDir, queueDepth: 8})
	defer shutdown2()
	snap, err := c2.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Epoch != wantEpoch {
		t.Fatalf("epoch after warm restart: %d, want %d", snap.Epoch, wantEpoch)
	}
	out2, err := c2.Query(ctx, queryX1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out2.Rows) != wantRows || out2.Epoch != wantEpoch {
		t.Fatalf("post-restart answers: %d rows at epoch %d, want %d at %d",
			len(out2.Rows), out2.Epoch, wantRows, wantEpoch)
	}
	// The restarted daemon is still live and durable: apply + checkpoint.
	ar, err := c2.ApplyDelta(ctx, dualsim.Delta{Adds: []dualsim.Triple{
		dualsim.T("post:s", "post:p", "post:o"),
	}})
	if err != nil || ar.Stats.Epoch != wantEpoch+1 {
		t.Fatalf("post-restart apply: %+v, %v", ar, err)
	}
	ck, err := c2.Checkpoint(ctx)
	if err != nil || ck.Stats.Epoch != wantEpoch+1 {
		t.Fatalf("post-restart checkpoint: %+v, %v", ck, err)
	}
}

// spawnDaemon re-executes the test binary as a real dualsimd process
// (see TestMain) and scrapes the bound address off its stderr. The
// returned process is NOT drained — crash tests kill it.
func spawnDaemon(t *testing.T, args ...string) (*client.Client, *exec.Cmd) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), "DUALSIMD_MAIN=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stderr)
	var addr string
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "dualsimd: listening on http://"); ok {
			addr = rest
			break
		}
	}
	if addr == "" {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("daemon process never reported its address (scan err: %v)", sc.Err())
	}
	// Keep draining stderr so the child never blocks on a full pipe.
	go io.Copy(io.Discard, stderr)
	c, err := client.New("http://" + addr)
	if err != nil {
		t.Fatal(err)
	}
	return c, cmd
}

// TestDaemonCrashRecovery SIGKILLs a durable daemon process mid-apply
// and asserts the warm restart replays the WAL to a consistent epoch:
// every acknowledged apply survives, the store is intact (no torn
// triples), and the epoch sequence continues where the log ended.
func TestDaemonCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level crash test")
	}
	dataDir := t.TempDir()
	c, cmd := spawnDaemon(t, "-store", fixture(t), "-data", dataDir)
	ctx := context.Background()

	// Apply continuously; fire the SIGKILL asynchronously after a few
	// acknowledgements so the kill lands while applies are in flight —
	// long before the 1024th apply would checkpoint, so recovery replays
	// every acknowledged record from the WAL.
	const killAfter = 25
	acked := 0
	var lastEpoch uint64
	for i := 0; ; i++ {
		if i == killAfter {
			go cmd.Process.Kill() // async: the next applies race the kill
		}
		resp, err := c.Apply(ctx, []client.Triple{
			{S: fmt.Sprintf("crash:s%d", i), P: "crash:edge", O: fmt.Sprintf("crash:o%d", i)},
		}, nil)
		if err != nil {
			break // the daemon is gone; everything acked so far must survive
		}
		acked++
		lastEpoch = resp.Stats.Epoch
		if i > killAfter+10000 {
			t.Fatal("daemon refused to die")
		}
	}
	cmd.Wait()
	if acked < killAfter {
		t.Fatalf("only %d applies acknowledged before the crash", acked)
	}
	if lastEpoch != uint64(acked) {
		t.Fatalf("last acked epoch %d after %d applies", lastEpoch, acked)
	}

	// Warm restart in-process and audit the recovered state.
	db, err := dualsim.OpenDir(dataDir)
	if err != nil {
		t.Fatalf("recovery after SIGKILL: %v", err)
	}
	defer db.Close()
	if db.Epoch() < lastEpoch {
		t.Fatalf("recovered epoch %d lost acknowledged epoch %d", db.Epoch(), lastEpoch)
	}
	st := db.Store()
	p, ok := st.PredIDOf("crash:edge")
	if !ok {
		t.Fatal("recovered store lost the crash:edge predicate")
	}
	for i := 0; i < acked; i++ {
		s, okS := st.TermID(dualsim.IRI(fmt.Sprintf("crash:s%d", i)))
		o, okO := st.TermID(dualsim.IRI(fmt.Sprintf("crash:o%d", i)))
		if !okS || !okO || !st.HasTriple(s, p, o) {
			t.Fatalf("acknowledged triple %d missing after recovery (epoch %d, acked %d)", i, db.Epoch(), acked)
		}
	}
	// No torn triples: every crash:edge triple is one of ours, fully
	// formed (the kill may legitimately have persisted one unacked
	// apply from the in-flight window — durability is about acks).
	if n := st.PredCount(p); n < acked || n > acked+1 {
		t.Fatalf("recovered %d crash:edge triples, want %d or %d", n, acked, acked+1)
	}
	// And the original store answers queries as before.
	res, stats, err := db.Exec(ctx, queryX1)
	if err != nil || res.Len() != 2 {
		t.Fatalf("recovered query: %v rows, %v", res.Len(), err)
	}
	if stats.Epoch != db.Epoch() {
		t.Fatalf("exec epoch %d vs db epoch %d", stats.Epoch, db.Epoch())
	}
}

// TestDaemonShard boots one daemon per shard of a 2-way partitioning
// and checks the split: disjoint triple counts covering the input, and
// each predicate answered by exactly its owning shard.
func TestDaemonShard(t *testing.T) {
	fix := fixture(t)
	base := daemonConfig{store: fix, queueDepth: 8}
	ctx := context.Background()

	cfg0, cfg1 := base, base
	cfg0.shard, cfg1.shard = "0/2", "1/2"
	c0, shutdown0 := startDaemon(t, cfg0)
	defer shutdown0()
	c1, shutdown1 := startDaemon(t, cfg1)
	defer shutdown1()

	s0, err := c0.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := c1.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	full := len(queries.Fig1aTriples())
	if s0.Triples+s1.Triples != full || s0.Triples == 0 || s1.Triples == 0 {
		t.Fatalf("shards hold %d + %d triples, input has %d", s0.Triples, s1.Triples, full)
	}

	// Every predicate lives wholly on its ShardOf shard.
	shardClients := []*client.Client{c0, c1}
	for _, pred := range []string{"directed", "worked_with", "genre", "population"} {
		owner := cluster.ShardOf(pred, 2)
		src := fmt.Sprintf(`SELECT * WHERE { ?s <%s> ?o . }`, pred)
		for i, c := range shardClients {
			out, err := c.Query(ctx, src)
			if err != nil {
				t.Fatal(err)
			}
			if (len(out.Rows) > 0) != (i == owner) {
				t.Errorf("predicate %q: shard %d answered %d rows, owner is %d", pred, i, len(out.Rows), owner)
			}
		}
	}
}

// TestDaemonFollower boots a durable primary and a -follow replica:
// the replica must report not-ready until it catches up, serve the
// primary's data read-only, and track live applies.
func TestDaemonFollower(t *testing.T) {
	ctx := context.Background()
	pc, shutdownPrimary := startDaemon(t, daemonConfig{store: fixture(t), data: t.TempDir(), queueDepth: 8})
	defer shutdownPrimary()
	if _, err := pc.ApplyDelta(ctx, dualsim.Delta{Adds: []dualsim.Triple{
		dualsim.T("J._McTiernan", "directed", "Die_Hard"),
	}}); err != nil {
		t.Fatal(err)
	}
	// The replica needs the primary's URL; recover it from the client.
	purl := pc.BaseURL()

	rc, shutdownReplica := startDaemon(t, daemonConfig{follow: purl, queueDepth: 8})
	defer shutdownReplica()

	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := rc.Ready(ctx); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replica never became ready")
		}
		time.Sleep(10 * time.Millisecond)
	}

	out, err := rc.Query(ctx, queryX1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pc.Query(ctx, queryX1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != len(want.Rows) || out.Epoch != want.Epoch {
		t.Fatalf("replica: %d rows at epoch %d; primary: %d at %d",
			len(out.Rows), out.Epoch, len(want.Rows), want.Epoch)
	}

	// A replica is read-only: mutations answer 403.
	if _, err := rc.ApplyDelta(ctx, dualsim.Delta{Adds: []dualsim.Triple{
		dualsim.T("x", "y", "z"),
	}}); err == nil {
		t.Fatal("replica accepted a write")
	}

	// Live catch-up of a post-bootstrap apply.
	if _, err := pc.ApplyDelta(ctx, dualsim.Delta{Adds: []dualsim.Triple{
		dualsim.T("J._McTiernan", "worked_with", "S._de_Souza"),
	}}); err != nil {
		t.Fatal(err)
	}
	for {
		out, err := rc.Query(ctx, queryX1)
		if err != nil {
			t.Fatal(err)
		}
		if out.Epoch == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at epoch %d", out.Epoch)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDaemonConfigErrors: every argument list fails, at parse or at
// run, before the daemon serves anything.
func TestDaemonConfigErrors(t *testing.T) {
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	fix, emptyDir := fixture(t), t.TempDir()
	cases := [][]string{
		{},                                                 // missing -store and -data
		{"-store", "/no/such.nt"},                          // unreadable store
		{"-store", fix, "-queuedepth", "-1"},               // negative queue depth fails loudly
		{"-store", fix, "-slowlog", "-1s"},                 // … and so does a negative slow-log threshold
		{"-store", fix, "-slowlog", "16"},                  // -slowlog is a duration, not a ring size
		{"-store", fix, "-slowlog", "0"},                   // a bare 0 reads as "off"; 0s keeps every query
		{"-data", emptyDir},                                // -data without state needs -store
		{"-store", fix, "-shard", "2/2"},                   // shard index out of range
		{"-store", fix, "-shard", "nope"},                  // malformed shard spec
		{"-store", fix, "-follow", "http://x"},             // -follow conflicts with -store
		{"-follow", "localhost:8321"},                      // not an http(s) URL
		{"-maxlag", "3"},                                   // -maxlag requires -follow or -route
		{"-store", fix, "-maxlag", "3"},                    // … also on a primary
		{"-route", "http://x", "-store", fix},              // -route conflicts with -store
		{"-route", "http://x", "-data", emptyDir},          // … -data
		{"-route", "http://x", "-shard", "0/2"},            // … -shard
		{"-route", "http://x", "-follow", "http://y"},      // … -follow
		{"-route", "http://x", "-maxquerymem", "1024"},     // … and the session's -maxquerymem,
		{"-route", "http://x", "-maxquerymem", "0"},        //   even at its default
		{"-route", "http://x,,http://y"},                   // empty endpoint
		{"-route", "http://x", "-route", "localhost:8321"}, // not an http(s) URL
		{"-route", "http://x", "-queuedepth", "-1"},        // the router's admission validates too
		{"-route", "http://x", "-probeevery", "50ms"},      // the probe period is fixed
	}
	// A case that wrongly got through would serve until cancelled; with
	// ctx already done it returns at once instead of hanging the test.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, args := range cases {
		cfg, err := parseFlags(append([]string{"-addr", "127.0.0.1:0"}, args...), flag.ContinueOnError)
		if err == nil {
			err = run(ctx, cfg, devnull, nil)
		}
		if err == nil {
			t.Errorf("%q: expected error", args)
		}
	}
}

func TestParseFlagsDefaults(t *testing.T) {
	cfg, err := parseFlags([]string{"-store", "x.nt", "-maxinflight", "4"}, flag.ContinueOnError)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.store != "x.nt" || cfg.maxInFlight != 4 || cfg.queueDepth != 64 || cfg.maxQueryMem != 0 {
		t.Fatalf("parsed config: %+v", cfg)
	}
	if cfg.drainTimeout != 10*time.Second || len(cfg.route) != 0 || cfg.given["slowlog"] || cfg.given["maxquerymem"] {
		t.Fatalf("defaults: %+v", cfg)
	}
	if opts := sessionOptions(cfg); len(opts) != 2 {
		t.Fatalf("session options: %d, want the compaction cadence and the memory budget", len(opts))
	}
	cfg, err = parseFlags([]string{"-data", "/var/lib/dualsim", "-slowlog", "0s", "-maxquerymem", "4096"}, flag.ContinueOnError)
	if err != nil || cfg.data != "/var/lib/dualsim" || cfg.store != "" {
		t.Fatalf("warm-restart config: %+v, %v", cfg, err)
	}
	if !cfg.given["slowlog"] || cfg.slowLog != 0 || !cfg.given["maxquerymem"] || cfg.maxQueryMem != 4096 {
		t.Fatalf("explicit flags: %+v", cfg)
	}
}

// TestDaemonSessionCompacts: a daemon session rebuilds its store once
// compactEvery changed triples accumulated since the last compaction,
// without a POST /v1/compact.
func TestDaemonSessionCompacts(t *testing.T) {
	cfg, err := parseFlags([]string{"-store", fixture(t)}, flag.ContinueOnError)
	if err != nil {
		t.Fatal(err)
	}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	db, err := openSession(cfg, devnull)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	adds := make([]dualsim.Triple, compactEvery)
	for i := range adds {
		adds[i] = dualsim.Triple{S: dualsim.IRI(fmt.Sprintf("s%d", i)), P: "p", O: dualsim.IRI("o")}
	}
	ctx := context.Background()
	st, err := db.Apply(ctx, dualsim.Delta{Adds: adds[:compactEvery-1]})
	if err != nil || st.Compacted {
		t.Fatalf("apply of %d changes: compacted %v, %v", compactEvery-1, st.Compacted, err)
	}
	st, err = db.Apply(ctx, dualsim.Delta{Adds: adds[compactEvery-1:]})
	if err != nil || !st.Compacted || st.OverlaySize != 0 {
		t.Fatalf("apply reaching %d changes: compacted %v, overlay %d, %v", compactEvery, st.Compacted, st.OverlaySize, err)
	}
}

// TestSlowLogFlag: without -slowlog the daemon keeps no slow query,
// -slowlog 0s keeps every query, and a threshold no query reaches keeps
// none.
func TestSlowLogFlag(t *testing.T) {
	fix := fixture(t)
	ctx := context.Background()
	for _, c := range []struct {
		args []string
		want int
	}{
		{nil, 0},
		{[]string{"-slowlog", "0s"}, 2},
		{[]string{"-slowlog", "1h"}, 0},
	} {
		cfg, err := parseFlags(append([]string{"-store", fix}, c.args...), flag.ContinueOnError)
		if err != nil {
			t.Fatal(err)
		}
		cl, shutdown := startDaemon(t, cfg)
		for range 2 {
			if _, err := cl.Query(ctx, queryX1); err != nil {
				t.Fatal(err)
			}
		}
		slow, err := cl.SlowQueries(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if slow.Total != int64(c.want) || len(slow.Entries) != c.want {
			t.Errorf("%q: slow log total %d, %d entries; want %d", c.args, slow.Total, len(slow.Entries), c.want)
		}
		shutdown()
	}
}

// TestParseRoute: each -route flag is one shard's endpoint list, primary
// first, in shard order; an empty endpoint is a parse error; and
// without -route the daemon never runs as a router.
func TestParseRoute(t *testing.T) {
	cfg, err := parseFlags([]string{
		"-route", "http://a:1, http://a2:1", "-route", "http://b:1", "-maxlag", "2",
	}, flag.ContinueOnError)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"http://a:1", "http://a2:1"}, {"http://b:1"}}
	if fmt.Sprint(cfg.route) != fmt.Sprint(want) || cfg.maxLag != 2 {
		t.Fatalf("route config: %v, maxlag %d", cfg.route, cfg.maxLag)
	}
	if _, err := parseFlags([]string{"-route", "http://a:1,,http://b:1"}, flag.ContinueOnError); err == nil {
		t.Fatal("empty endpoint accepted")
	}
	if _, err := parseFlags([]string{"-route", ""}, flag.ContinueOnError); err == nil {
		t.Fatal("empty -route accepted")
	}
	// No -route: the maxlag flag makes it a config error, not a router.
	cfg, err = parseFlags([]string{"-maxlag", "2"}, flag.ContinueOnError)
	if err != nil || cfg.route != nil {
		t.Fatalf("route without -route: %v, %v", cfg.route, err)
	}
	if err := run(context.Background(), cfg, nil, nil); err == nil || !strings.Contains(err.Error(), "-maxlag") {
		t.Fatalf("a route config without shards ran: %v", err)
	}
}

// TestRouterDaemonServesAndDrains: a -route daemon over two -shard
// daemons answers a UNION with the rows and vars of a single node over
// the whole store, then drains on cancel.
func TestRouterDaemonServesAndDrains(t *testing.T) {
	shard := daemonConfig{store: fixture(t), queueDepth: 8}
	var route endpointLists
	for _, spec := range []string{"0/2", "1/2"} {
		cfg := shard
		cfg.shard = spec
		c, shutdown := startDaemon(t, cfg)
		defer shutdown()
		route = append(route, []string{c.BaseURL()})
	}
	c, shutdown := startDaemon(t, daemonConfig{route: route, queueDepth: 64})
	ctx := context.Background()
	if _, err := c.Ready(ctx); err != nil {
		t.Fatalf("probed router not ready: %v", err)
	}

	src := `SELECT * WHERE { { ?d <directed> ?m . ?d <worked_with> ?c . } UNION { ?x <awarded> ?a . } }`
	out, err := c.Query(ctx, src)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: a single node over the whole store.
	full, err := dualsim.FromTriples(queries.Fig1aTriples())
	if err != nil {
		t.Fatal(err)
	}
	db, err := dualsim.Open(full)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	res, _, err := db.Query(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != res.Len() || len(out.Rows) == 0 {
		t.Fatalf("router answered %d rows, single node %d", len(out.Rows), res.Len())
	}
	vars := append([]string{}, out.Vars...)
	want := append([]string{}, res.Vars...)
	sort.Strings(vars)
	sort.Strings(want)
	if strings.Join(vars, ",") != strings.Join(want, ",") {
		t.Fatalf("router vars %v, single node %v", out.Vars, res.Vars)
	}
	shutdown() // the router drains before its shards do
	// A parallel fan-out can leave a dialed connection to a shard that no
	// request used, and a shard's drain waits 5 s before it counts such a
	// connection as idle. An exiting router process closes it; here the
	// router shares the test's process, so close it by hand.
	http.DefaultClient.CloseIdleConnections()
}

// TestEngineFlagGone: the daemon's evaluator is not selectable (-engine),
// its pipeline has no pre-filter stage (-fingerprint), its solver no
// parallel kernels (-workers) and there is no batch pool (-batchworkers;
// a request carries one query); checkpoints follow a fixed cadence (-checkpointevery),
// the statement table is always on (-stmtstats) and the router probes
// its shards once a second (-probeevery). A session prunes, caches 128
// plans and compacts on request, as the library's defaults do (-prune,
// -plancache, -compactat), and -slowlog alone sets the slow-log
// threshold (-slowthreshold). Each is a flag-parse error rather than a
// knob the daemon ignores.
func TestEngineFlagGone(t *testing.T) {
	for _, name := range []string{
		"-engine", "-fingerprint", "-workers", "-batchworkers", "-checkpointevery", "-stmtstats", "-probeevery",
		"-prune", "-plancache", "-compactat", "-slowthreshold",
	} {
		_, err := parseFlags([]string{"-store", "x.nt", name, "2"}, flag.ContinueOnError)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+name) {
			t.Errorf("%s parsed: %v", name, err)
		}
	}
}
