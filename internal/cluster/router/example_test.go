package router_test

import (
	"context"
	"fmt"
	"maps"
	"net/http/httptest"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"dualsim"
	"dualsim/client"
	"dualsim/internal/cluster"
	"dualsim/internal/cluster/router"
	"dualsim/internal/queries"
	"dualsim/internal/server"
	"dualsim/internal/trace"
)

// startShard serves shard i of 2 of the paper's Fig. 1(a) database, as
// `dualsimd -store db.nt -shard i/2` does, and returns its URL and a
// function that kills it. Each shard holds every triple of its
// predicates, which is what makes pushing a branch down to one shard
// exact.
func startShard(i int, opts []dualsim.Option, srvOpts ...server.Option) (string, func()) {
	full, err := dualsim.FromTriples(queries.Fig1aTriples())
	if err != nil {
		panic(err)
	}
	st, err := cluster.ShardStore(full, cluster.ShardSpec{Index: i, N: 2})
	if err != nil {
		panic(err)
	}
	db, err := dualsim.Open(st, opts...)
	if err != nil {
		panic(err)
	}
	srv, err := server.New(db, srvOpts...)
	if err != nil {
		panic(err)
	}
	fmt.Printf("shard %d/2: %d of %d triples\n", i, st.NumTriples(), full.NumTriples())
	hs := httptest.NewServer(srv)
	return hs.URL, func() { hs.Close(); db.Close() }
}

// serveRouter puts a probed router in front of the shard endpoints and
// returns it, a client of it and its server.
func serveRouter(endpoints [][]string, opts ...router.Option) (*router.Router, *client.Client, *httptest.Server) {
	rt, err := router.New(endpoints, opts...)
	if err != nil {
		panic(err)
	}
	rt.Probe(context.Background())
	hs := httptest.NewServer(rt.Handler())
	c, err := client.New(hs.URL)
	if err != nil {
		panic(err)
	}
	return rt, c, hs
}

// ExampleNew runs the scale-out topology in one process: two
// predicate-hash shards, a read replica that bootstraps from shard 0's
// snapshot and tails its WAL, and a router that speaks the single-node
// protocol in front of them. When shard 0's primary dies, the next probe
// routes its reads to the caught-up replica. In production:
//
//	dualsimd -store db.nt -shard 0/2 -data /var/lib/shard0 -addr :8321
//	dualsimd -store db.nt -shard 1/2 -addr :8322
//	dualsimd -follow http://localhost:8321 -addr :8323
//	dualsimd -route http://localhost:8321,http://localhost:8323 \
//	         -route http://localhost:8322 -addr :8320
func ExampleNew() {
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "dualsim-cluster-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	// Shard 0 is durable, so a replica can stream its WAL.
	primary, kill := startShard(0, []dualsim.Option{dualsim.WithDataDir(dir)})
	defer kill()
	shard1, stop := startShard(1, nil)
	defer stop()

	f, _ := cluster.Follow(primary)
	if err := f.Bootstrap(ctx); err != nil {
		panic(err)
	}
	follow, unfollow := context.WithCancel(ctx)
	following := make(chan error)
	go func() { following <- f.Run(follow) }()
	rsrv, _ := server.NewReplica(f)
	replica := httptest.NewServer(rsrv)
	defer replica.Close()
	fmt.Printf("replica of shard 0 at epoch %d\n", f.DB().Epoch())

	rt, c, front := serveRouter([][]string{{primary, replica.URL}, {shard1}})
	defer front.Close()
	out, _ := c.Query(ctx, queries.QueryX1)
	fmt.Printf("(X1) through the router: %d rows, vars %v, epoch %d\n", len(out.Rows), out.Vars, out.Epoch)

	c.ApplyDelta(ctx, dualsim.Delta{Adds: []dualsim.Triple{
		dualsim.T("J._McTiernan", "directed", "Die_Hard"),
		dualsim.T("J._McTiernan", "worked_with", "S._de_Souza"),
	}})
	// Reads of shard 0 alternate between its endpoints: wait until the
	// replica has replayed everything the primary holds.
	pc, _ := client.New(primary)
	snap, _ := pc.Snapshot(ctx)
	for deadline := time.Now().Add(10 * time.Second); f.DB().Epoch() < snap.Epoch; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			panic("the replica did not catch up")
		}
	}
	out, _ = c.Query(ctx, queries.QueryX1)
	fmt.Printf("after a routed apply: %d rows\n", len(out.Rows))
	unfollow()
	<-following
	fmt.Printf("replica replayed %d WAL record(s), at epoch %d\n", f.Stats().Applied, f.DB().Epoch())

	// Kill shard 0's primary; the next probe marks it down.
	kill()
	rt.Probe(ctx)
	out, _ = c.Query(ctx, queries.QueryX1)
	fmt.Printf("after killing shard 0's primary: %d rows\n", len(out.Rows))
	// Output:
	// shard 0/2: 12 of 20 triples
	// shard 1/2: 8 of 20 triples
	// replica of shard 0 at epoch 0
	// (X1) through the router: 2 rows, vars [director movie coworker], epoch 0
	// after a routed apply: 3 rows
	// replica replayed 1 WAL record(s), at epoch 1
	// after killing shard 0's primary: 3 rows
}

// ExampleWithProtocol traces one query through the router: the router's
// fan-out span on top, one branch span per top-level UNION arm with its
// routing mode and shard, and under each pushed-down branch the owning
// shard's whole pipeline, stitched in under the trace ID the router sent
// as a W3C traceparent header. WithProtocol turns the router's own
// slow-query log on (threshold 0 records every query), and the router
// merges the shards' workload statistics by statement fingerprint. In
// production:
//
//	dualsimd -store db.nt -shard 0/2 -slowlog 50ms -debugaddr :6060
//	dualsimd -route http://s0:8321 -route http://s1:8321 -slowlog 0s
func ExampleWithProtocol() {
	ctx := context.Background()
	var endpoints [][]string
	for i := 0; i < 2; i++ {
		url, stop := startShard(i, []dualsim.Option{dualsim.WithPlanCache(8)}, server.WithSlowQueryLog(0))
		defer stop()
		endpoints = append(endpoints, []string{url})
	}
	_, c, front := serveRouter(endpoints, router.WithProtocol(server.WithSlowQueryLog(0)))
	defer front.Close()

	// Each single-predicate arm pushes down whole to the shard that owns
	// its predicate.
	out, _ := c.Query(ctx, `SELECT * WHERE {
	  { ?movie <genre> ?g . } UNION { ?city <population> ?n . } }`, client.Trace())
	fmt.Println(len(out.Rows), "rows")
	printSpan(out.Stats.Trace, 0, out.Stats.Trace.TraceID)

	slow, _ := c.SlowQueries(ctx)
	fmt.Printf("slow-query log: %d entry, statement %s\n", slow.Total, slow.Entries[0].Fingerprint)

	stmts, _ := c.Statements(ctx)
	sort.Slice(stmts.Statements, func(i, j int) bool { return stmts.Statements[i].Query < stmts.Statements[j].Query })
	fmt.Printf("statements merged across %d shards:\n", stmts.Shards)
	for _, s := range stmts.Statements {
		fmt.Printf("  %s calls=%d rows=%d  %s\n", s.Fingerprint, s.Calls, s.Rows, s.Query)
	}
	// Output:
	// shard 0/2: 12 of 20 triples
	// shard 1/2: 8 of 20 triples
	// 5 rows
	// router.fanout
	//   branch branch=0 mode=pushdown shard=0
	//     query [stitched]
	//       parse
	//       plan
	//       prune
	//       evaluate
	//         op.scan detail=?movie <genre> ?g .
	//   branch branch=1 mode=pushdown shard=0
	//     query [stitched]
	//       parse
	//       plan
	//       prune
	//       evaluate
	//         op.scan detail=?city <population> ?n .
	// slow-query log: 1 entry, statement f90cabf501ca9e0d
	// statements merged across 2 shards:
	//   cbac0d4174cdc60c calls=1 rows=2  SELECT * WHERE { ?v0 <genre> ?v1 . }
	//   ed5c2ce742d22848 calls=1 rows=3  SELECT * WHERE { ?v0 <population> ?v1 . }
}

// printSpan prints the tree one span per line, with its attributes but
// without times or endpoints. A subtree root that crossed a process
// boundary carries the trace ID again: that is where the router stitched
// a shard's spans in.
func printSpan(s *trace.Span, depth int, traceID string) {
	line := strings.Repeat("  ", depth) + s.Name
	for _, k := range slices.Sorted(maps.Keys(s.Attrs)) {
		if k != "endpoint" {
			line += " " + k + "=" + s.Attrs[k]
		}
	}
	if depth > 0 && s.TraceID == traceID {
		line += " [stitched]"
	}
	fmt.Println(line)
	for _, c := range s.Children {
		printSpan(c, depth+1, traceID)
	}
}
