package main

import (
	"context"
	"flag"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"dualsim"
	"dualsim/client"
	"dualsim/internal/cluster"
	"dualsim/internal/queries"
	"dualsim/internal/server"
)

// TestMain doubles the test binary as the router daemon when
// re-executed with DUALSIMROUTER_MAIN=1 (mirrors cmd/dualsimd).
func TestMain(m *testing.M) {
	if os.Getenv("DUALSIMROUTER_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestParseFlags(t *testing.T) {
	cfg, err := parseFlags([]string{
		"-shard", "http://a:1,http://a2:1", "-shard", "http://b:1", "-maxlag", "2",
	}, flag.ContinueOnError)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.shards) != 2 || len(cfg.shards[0]) != 2 || cfg.shards[1][0] != "http://b:1" {
		t.Fatalf("shards: %v", cfg.shards)
	}
	if cfg.maxLag != 2 || cfg.probeEvery != time.Second || cfg.drainTimeout != 10*time.Second {
		t.Fatalf("config: %+v", cfg)
	}

	if _, err := parseFlags(nil, flag.ContinueOnError); err == nil {
		t.Fatal("no -shard accepted")
	}
	if _, err := parseFlags([]string{"-shard", "http://a:1,,http://b:1"}, flag.ContinueOnError); err == nil {
		t.Fatal("empty endpoint accepted")
	}
}

// startShards serves each partition of Fig. 1(a) like a shard daemon.
func startShards(t *testing.T, n int) []string {
	t.Helper()
	full, err := dualsim.FromTriples(queries.Fig1aTriples())
	if err != nil {
		t.Fatal(err)
	}
	var urls []string
	for i := 0; i < n; i++ {
		st, err := cluster.ShardStore(full, cluster.ShardSpec{Index: i, N: n})
		if err != nil {
			t.Fatal(err)
		}
		db, err := dualsim.Open(st)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(db)
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(srv)
		t.Cleanup(func() {
			hs.Close()
			db.Close()
		})
		urls = append(urls, hs.URL)
	}
	return urls
}

// The daemon end-to-end: run() over two real shard servers, a query
// through the router matching a single node, and a clean drain.
func TestRouterDaemonServesAndDrains(t *testing.T) {
	urls := startShards(t, 2)
	cfg := routerConfig{
		addr:         "127.0.0.1:0",
		shards:       [][]string{{urls[0]}, {urls[1]}},
		probeEvery:   50 * time.Millisecond,
		drainTimeout: 5 * time.Second,
	}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() { errc <- run(ctx, cfg, devnull, ready) }()

	var addr string
	select {
	case addr = <-ready:
	case err := <-errc:
		t.Fatalf("router died before listening: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("router never became ready")
	}
	c, err := client.New("http://" + addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ready(context.Background()); err != nil {
		t.Fatalf("probed router not ready: %v", err)
	}

	src := `SELECT * WHERE { { ?d <directed> ?m . ?d <worked_with> ?c . } UNION { ?x <awarded> ?a . } }`
	out, err := c.Query(context.Background(), src)
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
	res, _, err := db.Snapshot().Query(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != res.Len() || len(out.Rows) == 0 {
		t.Fatalf("router answered %d rows, single node %d", len(out.Rows), res.Len())
	}
	var vars []string
	vars = append(vars, out.Vars...)
	sort.Strings(vars)
	want := append([]string{}, res.Vars...)
	sort.Strings(want)
	if strings.Join(vars, ",") != strings.Join(want, ",") {
		t.Fatalf("router vars %v, single node %v", out.Vars, res.Vars)
	}

	cancel() // run treats ctx cancellation like SIGTERM: drain + exit
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("router did not drain")
	}
}
