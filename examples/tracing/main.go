// Tracing demonstrates the end-to-end observability surface on a
// scale-out topology: the Fig. 1(a) store partitioned over two
// predicate-hash shards behind the scatter-gather router, with the
// slow-query log enabled everywhere.
//
// A single `?trace=1` query through the router produces ONE span tree:
// the router's fan-out span on top, one branch span per top-level UNION
// arm (attributed with its routing mode and shard), and — for pushed-down
// branches — the owning shard's entire pipeline subtree (parse/plan,
// prune, evaluate, per-operator spans) stitched underneath, all carrying
// the same 128-bit trace ID the router injected as a W3C `traceparent`
// header. The example prints the stitched tree indented, then reads the
// router's slow-query ring back through the client.
//
// In production the same surfaces hang off the daemons' flags:
//
//	dualsimd       -slowlog 64 -slowthreshold 50ms -debugaddr :6060 -accesslog -
//	dualsimrouter  -slowlog 64 -debugaddr :6061 -accesslog -
//
// with pprof at http://…:6060/debug/pprof/ and the ring at
// GET /v1/debug/slow on both the serving and debug listeners.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"sort"
	"time"

	"dualsim"
	"dualsim/client"
	"dualsim/internal/cluster"
	"dualsim/internal/cluster/router"
	"dualsim/internal/server"
	"dualsim/internal/trace"
)

var fig1a = []dualsim.Triple{
	dualsim.T("B._De_Palma", "directed", "Mission:_Impossible"),
	dualsim.T("B._De_Palma", "awarded", "Oscar"),
	dualsim.T("B._De_Palma", "born_in", "Newark"),
	dualsim.T("B._De_Palma", "worked_with", "D._Koepp"),
	dualsim.T("Mission:_Impossible", "genre", "Action"),
	dualsim.T("Goldfinger", "genre", "Action"),
	dualsim.T("G._Hamilton", "directed", "Goldfinger"),
	dualsim.T("G._Hamilton", "born_in", "Paris"),
	dualsim.T("G._Hamilton", "worked_with", "H._Saltzman"),
	dualsim.T("Thunderball", "sequel_of", "Goldfinger"),
	dualsim.T("Thunderball", "awarded", "Oscar"),
	dualsim.T("H._Saltzman", "born_in", "Saint_John"),
	dualsim.T("From_Russia_with_Love", "prequel_of", "Goldfinger"),
	dualsim.T("T._Young", "directed", "From_Russia_with_Love"),
	dualsim.T("T._Young", "awarded", "BAFTA_Awards"),
	dualsim.T("P.R._Hunt", "worked_with", "D._Koepp"),
	dualsim.T("D._Koepp", "directed", "Mortdecai"),
	dualsim.TL("Newark", "population", "277140"),
	dualsim.TL("Paris", "population", "2220445"),
	dualsim.TL("Saint_John", "population", "70063"),
}

// Two single-predicate branches: each pushes down verbatim to whichever
// shard owns its predicate, so each branch span carries a full shard
// pipeline subtree.
const tracedQuery = `
SELECT * WHERE {
  { ?movie <genre> ?g . } UNION { ?city <population> ?n . } }`

func main() {
	ctx := context.Background()
	st, err := dualsim.FromTriples(fig1a)
	if err != nil {
		log.Fatal(err)
	}

	// Two in-process shard daemons, slow-query log on.
	var shardURLs [][]string
	for i := 0; i < 2; i++ {
		shardStore, err := cluster.ShardStore(st, cluster.ShardSpec{Index: i, N: 2})
		if err != nil {
			log.Fatal(err)
		}
		sdb, err := dualsim.Open(shardStore, dualsim.WithPlanCache(8))
		if err != nil {
			log.Fatal(err)
		}
		defer sdb.Close()
		ssrv, err := server.New(sdb, server.WithSlowQueryLog(16, 0))
		if err != nil {
			log.Fatal(err)
		}
		sln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		shs := &http.Server{Handler: ssrv}
		go shs.Serve(sln)
		defer shs.Close()
		shardURLs = append(shardURLs, []string{"http://" + sln.Addr().String()})
	}

	// The router in front, its own slow-query ring enabled.
	rt, err := router.New(shardURLs, router.WithProtocol(server.WithSlowQueryLog(16, 0)))
	if err != nil {
		log.Fatal(err)
	}
	rt.Probe(ctx)
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	rhs := &http.Server{Handler: rt.Handler()}
	go rhs.Serve(rln)
	defer rhs.Close()

	// One traced query through the router.
	c, err := client.New("http://" + rln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	out, err := c.Query(ctx, tracedQuery, client.Trace())
	if err != nil {
		log.Fatal(err)
	}
	root := out.Stats.Trace
	if root == nil {
		fmt.Fprintln(os.Stderr, "traced query returned no span tree")
		os.Exit(1)
	}
	fmt.Printf("%d rows; one distributed trace %s:\n\n", len(out.Rows), root.TraceID)
	printSpan(root, 0, root.TraceID)

	// The router's slow-query ring has the same tree (threshold 0 records
	// everything — production sets -slowthreshold to a real budget).
	slow, err := c.SlowQueries(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nslow-query log: %d entr(ies), newest %q in %v (statement %s)\n",
		slow.Total, slow.Entries[0].Query, slow.Entries[0].Duration.Round(time.Microsecond),
		slow.Entries[0].Fingerprint)

	// The cluster-wide workload statistics: the router scrapes every
	// shard's /v1/debug/statements and merges by normalized statement
	// fingerprint — here, the two UNION branches the fan-out pushed down,
	// one recorded per owning shard. `dualsim -top -server <router>`
	// renders the same view live.
	stmts, err := c.Statements(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nworkload statistics, merged across %d shard(s):\n", stmts.Shards)
	for _, s := range stmts.Statements {
		fmt.Printf("  %s calls=%d rows=%d  %s\n", s.Fingerprint, s.Calls, s.Rows, s.Query)
	}

	if root.Name != "router.fanout" || root.Find("evaluate") == nil {
		fmt.Fprintln(os.Stderr, "span tree misses the fan-out root or a shard's evaluate stage")
		os.Exit(1)
	}
	if slow.Entries[0].Fingerprint == "" || stmts.Shards != 2 || len(stmts.Statements) == 0 {
		fmt.Fprintln(os.Stderr, "workload statistics missing: fingerprint, shard count or merged rows")
		os.Exit(1)
	}
}

// printSpan renders the tree one span per line. Subtree roots that
// crossed a process boundary repeat the trace ID; flagging them shows
// where the router stitched a shard's spans in.
func printSpan(s *trace.Span, depth int, traceID string) {
	for i := 0; i < depth; i++ {
		fmt.Print("  ")
	}
	fmt.Print(s.Name)
	if len(s.Attrs) > 0 {
		keys := make([]string, 0, len(s.Attrs))
		for k := range s.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf(" %s=%s", k, s.Attrs[k])
		}
	}
	if s.Duration > 0 {
		fmt.Printf(" (%v)", s.Duration.Round(time.Microsecond))
	}
	if depth > 0 && s.TraceID == traceID {
		fmt.Print("  [stitched shard subtree]")
	}
	fmt.Println()
	for _, c := range s.Children {
		printSpan(c, depth+1, traceID)
	}
}
