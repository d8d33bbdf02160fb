package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
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
	c, shutdown := startDaemon(t, daemonConfig{
		store: fixture(t), prune: true, planCache: 16, queueDepth: 8,
	})
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

	c, shutdown := startDaemon(t, daemonConfig{
		store: fixture(t), data: dataDir, prune: true,
		planCache: 16, queueDepth: 8, checkpointEvery: 1024,
	})
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
	c2, shutdown2 := startDaemon(t, daemonConfig{
		data: dataDir, prune: true, planCache: 16, queueDepth: 8,
	})
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
	c, cmd := spawnDaemon(t,
		"-store", fixture(t), "-data", dataDir,
		"-plancache", "8", "-checkpointevery", "0") // keep everything in the WAL: recovery must replay, not cheat
	ctx := context.Background()

	// Apply continuously; fire the SIGKILL asynchronously after a few
	// acknowledgements so the kill lands while applies are in flight.
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
	base := daemonConfig{store: fix, prune: true, planCache: 16, queueDepth: 8}
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
	pc, shutdownPrimary := startDaemon(t, daemonConfig{
		store: fixture(t), data: t.TempDir(), prune: true,
		planCache: 16, queueDepth: 8, checkpointEvery: 1024,
	})
	defer shutdownPrimary()
	if _, err := pc.ApplyDelta(ctx, dualsim.Delta{Adds: []dualsim.Triple{
		dualsim.T("J._McTiernan", "directed", "Die_Hard"),
	}}); err != nil {
		t.Fatal(err)
	}
	// The replica needs the primary's URL; recover it from the client.
	purl := pc.BaseURL()

	rc, shutdownReplica := startDaemon(t, daemonConfig{
		follow: purl, prune: true, planCache: 16, queueDepth: 8,
	})
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

func TestDaemonConfigErrors(t *testing.T) {
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	emptyDir := t.TempDir()
	cases := []daemonConfig{
		{},                     // missing -store and -data
		{store: "/no/such.nt"}, // unreadable store
		{store: "fixture", fingerprintK: 2, prune: false}, // fingerprint without prune
		{store: "fixture", queueDepth: -1},                // negative queue depth fails loudly
		{store: "fixture", checkpointEvery: -1},           // negative checkpoint interval fails loudly
		{data: emptyDir},                                  // -data without state needs -store
		{store: "fixture", shard: "2/2"},                  // shard index out of range
		{store: "fixture", shard: "nope"},                 // malformed shard spec
		{store: "fixture", follow: "http://x"},            // -follow conflicts with -store
		{maxLag: 3},                                       // -maxlag requires -follow
	}
	fix := fixture(t)
	for i := range cases {
		if cases[i].store == "fixture" {
			cases[i].store = fix
		}
		if err := run(context.Background(), cases[i], devnull, nil); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestParseFlagsDefaults(t *testing.T) {
	cfg := parseFlags([]string{"-store", "x.nt", "-maxinflight", "4"}, flag.ContinueOnError)
	if cfg.store != "x.nt" || cfg.maxInFlight != 4 || !cfg.prune || cfg.planCache != 128 {
		t.Fatalf("parsed config: %+v", cfg)
	}
	if cfg.drainTimeout != 10*time.Second {
		t.Fatalf("drain default: %v", cfg.drainTimeout)
	}
	if cfg.checkpointEvery != 1024 {
		t.Fatalf("checkpointevery default: %d", cfg.checkpointEvery)
	}
	cfg = parseFlags([]string{"-data", "/var/lib/dualsim"}, flag.ContinueOnError)
	if cfg.data != "/var/lib/dualsim" || cfg.store != "" {
		t.Fatalf("warm-restart config: %+v", cfg)
	}
}

// TestEngineFlagGone: the daemon's evaluator is not selectable, so
// -engine is a flag-parse error rather than a knob /v1/query ignores.
func TestEngineFlagGone(t *testing.T) {
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "flag provided but not defined: -engine") {
			t.Fatalf("-engine parsed; recovered %q", msg)
		}
	}()
	parseFlags([]string{"-store", "x.nt", "-engine", "index"}, flag.PanicOnError)
}
