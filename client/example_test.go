package client_test

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"time"

	"dualsim"
	"dualsim/client"
	"dualsim/internal/queries"
	"dualsim/internal/server"
)

// serve starts a dualsimd-style server over the paper's Fig. 1(a)
// database on a loopback listener and returns a client of it, the
// server and a stop function. Against a standalone daemon the client is
// the same:
//
//	go run ./cmd/dualsimd -store kg.nt -addr 127.0.0.1:8321
//	c, err := client.New("http://127.0.0.1:8321")
func serve() (*client.Client, *server.Server, func()) {
	st, err := dualsim.FromTriples(queries.Fig1aTriples())
	if err != nil {
		panic(err)
	}
	db, err := dualsim.Open(st, dualsim.WithPlanCache(16))
	if err != nil {
		panic(err)
	}
	// Admission control: at most 8 queries execute at once, 16 more may
	// queue, the rest are shed with 429 + Retry-After.
	srv, err := server.New(db, server.WithMaxInFlight(8), server.WithQueueDepth(16))
	if err != nil {
		panic(err)
	}
	hs := httptest.NewServer(srv)
	c, err := client.New(hs.URL, client.WithRetries(2))
	if err != nil {
		panic(err)
	}
	return c, srv, func() { hs.Close(); db.Close() }
}

// ExampleClient_Query runs (X1) over HTTP and reads its stream whole, tagged
// with the epoch it was answered at.
func ExampleClient_Query() {
	c, _, stop := serve()
	defer stop()
	ctx := context.Background()

	h, _ := c.Health(ctx)
	fmt.Printf("health: %s (epoch %d)\n", h.Status, h.Epoch)
	out, _ := c.Query(ctx, queries.QueryX1, client.Timeout(5*time.Second))
	fmt.Printf("%d rows at epoch %d (solver rounds %d, pruned %.0f%%)\n",
		len(out.Rows), out.Epoch, out.Stats.Solver.Rounds, 100*out.Stats.PrunedRatio())
	for _, row := range out.Rows {
		fmt.Println(*row[0], *row[1], *row[2])
	}
	// Output:
	// health: ok (epoch 0)
	// 2 rows at epoch 0 (solver rounds 1, pruned 80%)
	// <B._De_Palma> <Mission:_Impossible> <D._Koepp>
	// <G._Hamilton> <Goldfinger> <H._Saltzman>
}

// ExampleClient_QueryStream reads (X2) row by row from the NDJSON
// stream; its header and its stats trailer carry the same epoch.
func ExampleClient_QueryStream() {
	c, _, stop := serve()
	defer stop()

	stream, _ := c.QueryStream(context.Background(), queries.QueryX2)
	n := 0
	for stream.Next() {
		n++
	}
	stream.Close()
	fmt.Printf("%d rows, header epoch %d, stats epoch %d, err %v\n",
		n, stream.Epoch(), stream.Stats().Epoch, stream.Err())
	// Output: 4 rows, header epoch 0, stats epoch 0, err <nil>
}

// ExampleClient_ApplyDelta publishes a delta over the wire: the next
// query answers at the new epoch. An empty delta is a no-op that keeps
// the epoch and the cached plans; Compact folds the overlay into the
// base store.
func ExampleClient_ApplyDelta() {
	c, _, stop := serve()
	defer stop()
	ctx := context.Background()

	ar, _ := c.ApplyDelta(ctx, dualsim.Delta{Adds: []dualsim.Triple{
		dualsim.T("J._McTiernan", "directed", "Die_Hard"),
		dualsim.T("J._McTiernan", "worked_with", "S._de_Souza"),
	}})
	out, _ := c.Query(ctx, queries.QueryX1)
	fmt.Printf("+%d triples at epoch %d; (X1) has %d rows at epoch %d\n",
		ar.Stats.Added, ar.Stats.Epoch, len(out.Rows), out.Epoch)

	nop, _ := c.Apply(ctx, nil, nil)
	fmt.Printf("empty delta: noOp %v, epoch %d\n", nop.Stats.NoOp, nop.Stats.Epoch)

	c.Compact(ctx)
	snap, _ := c.Snapshot(ctx)
	fmt.Printf("snapshot: epoch %d, %d triples, overlay %d, %d compaction\n",
		snap.Epoch, snap.Triples, snap.OverlaySize, snap.Compactions)
	// Output:
	// +2 triples at epoch 1; (X1) has 3 rows at epoch 1
	// empty delta: noOp true, epoch 1
	// snapshot: epoch 2, 22 triples, overlay 0, 1 compaction
}

// ExampleClient_Metrics reads the server's Prometheus page.
func ExampleClient_Metrics() {
	c, _, stop := serve()
	defer stop()
	ctx := context.Background()

	c.Query(ctx, queries.QueryX1)
	c.Query(ctx, queries.QueryX1)
	page, _ := c.Metrics(ctx)
	for _, line := range strings.Split(page, "\n") {
		for _, series := range []string{"dualsimd_queries_total", "dualsimd_plan_cache_hit_rate", "dualsimd_shed_total"} {
			if strings.HasPrefix(line, series+" ") {
				fmt.Println(line)
			}
		}
	}
	// Output:
	// dualsimd_plan_cache_hit_rate 0.5
	// dualsimd_queries_total 2
	// dualsimd_shed_total 0
}

// ExampleClient_Statements reads the server's workload statistics:
// executions keyed by a normalized fingerprint, so three spellings of
// (X1) — verbatim, re-spaced, variables renamed — are one statement.
func ExampleClient_Statements() {
	c, _, stop := serve()
	defer stop()
	ctx := context.Background()

	for _, src := range []string{
		queries.QueryX1,
		"SELECT * WHERE {?d <directed> ?m.\n\t?d <worked_with> ?c.}",
		`SELECT * WHERE { ?who <directed> ?film . ?who <worked_with> ?with . }`,
	} {
		c.Query(ctx, src)
	}
	stmts, _ := c.Statements(ctx)
	fmt.Println("tracked:", stmts.Tracked)
	for _, s := range stmts.Statements {
		fmt.Printf("%s calls=%d rows=%d  %s\n", s.Fingerprint, s.Calls, s.Rows, s.Query)
	}
	// Output:
	// tracked: 1
	// 0cd2bfd88c1d46a4 calls=3 rows=6  SELECT * WHERE { ?v0 <directed> ?v1 . ?v0 <worked_with> ?v2 . }
}

// ExampleClient_Ready: a draining server stays live but stops being
// ready, so a balancer stops sending it traffic while its in-flight
// work finishes.
func ExampleClient_Ready() {
	c, srv, stop := serve()
	defer stop()
	ctx := context.Background()

	srv.StartDrain()
	h, _ := c.Health(ctx)
	_, err := c.Ready(ctx)
	var ae *client.APIError
	fmt.Println("health:", h.Status)
	if errors.As(err, &ae) {
		fmt.Println("ready:", ae.StatusCode)
	}
	// Output:
	// health: draining
	// ready: 503
}
