package router

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dualsim"
	"dualsim/client"
	"dualsim/internal/cluster"
	"dualsim/internal/queries"
	"dualsim/internal/server"
	"dualsim/internal/wire"
)

// startShard serves one store as a daemon would.
func startShard(t *testing.T, st *dualsim.Store, opts ...server.Option) *httptest.Server {
	t.Helper()
	db, err := dualsim.Open(st)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(db, opts...)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(func() {
		hs.Close()
		db.Close()
	})
	return hs
}

// startCluster partitions Fig. 1(a) over n shards and returns a probed
// router plus a single-node reference server over the full store.
func startCluster(t *testing.T, n int, opts ...Option) (*Router, *httptest.Server, *httptest.Server) {
	t.Helper()
	full, err := dualsim.FromTriples(queries.Fig1aTriples())
	if err != nil {
		t.Fatal(err)
	}
	var endpoints [][]string
	for i := 0; i < n; i++ {
		st, err := cluster.ShardStore(full, cluster.ShardSpec{Index: i, N: n})
		if err != nil {
			t.Fatal(err)
		}
		endpoints = append(endpoints, []string{startShard(t, st).URL})
	}
	rt, err := New(endpoints, opts...)
	if err != nil {
		t.Fatal(err)
	}
	rt.Probe(context.Background())
	rs := httptest.NewServer(rt.Handler())
	t.Cleanup(rs.Close)
	return rt, rs, startShard(t, full)
}

// canonRows renders rows order-independently for multiset comparison.
func canonRows(rows [][]*string) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		parts := make([]string, len(row))
		for j, v := range row {
			if v == nil {
				parts[j] = "∅"
			} else {
				parts[j] = *v
			}
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

func queryVia(t *testing.T, url, src string) *wire.QueryResponse {
	t.Helper()
	c, err := client.New(url)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Query(context.Background(), src)
	if err != nil {
		t.Fatalf("query %q via %s: %v", src, url, err)
	}
	return out
}

// The acceptance bar: for every shape the router handles — single-shard
// push-down, cross-shard gather, top-level UNION over both, OPTIONAL,
// constants, empty results — the answer must be row-identical to a
// single node over the unpartitioned store, with identical columns.
func TestRouterRowIdenticalToSingleNode(t *testing.T) {
	for _, n := range []int{2, 3} {
		rt, rs, single := startCluster(t, n)
		srcs := []string{
			// Joins whose predicates may or may not colocate.
			`SELECT * WHERE { ?d <directed> ?m . ?d <worked_with> ?c . }`,
			`SELECT * WHERE { ?d <directed> ?m . ?m <genre> ?g . }`,
			`SELECT * WHERE { ?d <directed> ?m . ?d <awarded> ?a . ?d <born_in> ?p . }`,
			// Single-predicate scans (always push-down).
			`SELECT * WHERE { ?s <genre> ?g . }`,
			`SELECT * WHERE { ?p <population> ?n . }`,
			// OPTIONAL inside one branch, predicates spanning shards.
			`SELECT * WHERE { ?d <directed> ?m . OPTIONAL { ?d <born_in> ?p . } }`,
			`SELECT * WHERE { ?d <directed> ?m . OPTIONAL { ?m <genre> ?g . OPTIONAL { ?d <awarded> ?a . } } }`,
			// Top-level UNIONs: disjoint schemas, shared vars, three arms.
			`SELECT * WHERE { { ?d <directed> ?m . } UNION { ?x <awarded> ?a . } }`,
			`SELECT * WHERE { { ?d <directed> ?m . ?d <worked_with> ?c . } UNION { ?d <directed> ?m . ?m <genre> ?g . } }`,
			`SELECT * WHERE { { ?s <sequel_of> ?m . } UNION { ?s <prequel_of> ?m . } UNION { ?s <genre> ?m . } }`,
			// UNION nested below the top level stays inside its branch.
			`SELECT * WHERE { ?d <directed> ?m . { ?m <genre> ?g . } UNION { ?m2 <sequel_of> ?m . } }`,
			// Constants and empty results.
			`SELECT * WHERE { ?d <directed> <Goldfinger> . }`,
			`SELECT * WHERE { ?s <no_such_predicate> ?o . }`,
		}
		for _, src := range srcs {
			got := queryVia(t, rs.URL, src)
			want := queryVia(t, single.URL, src)
			if fmt.Sprint(got.Vars) != fmt.Sprint(want.Vars) {
				t.Errorf("n=%d %q: vars %v, single node %v", n, src, got.Vars, want.Vars)
				continue
			}
			g, w := canonRows(got.Rows), canonRows(want.Rows)
			if fmt.Sprint(g) != fmt.Sprint(w) {
				t.Errorf("n=%d %q:\n router rows %v\n single rows %v", n, src, g, w)
			}
		}
		_ = rt
	}
}

// The streamed path must carry the same rows and a synthesized stats
// trailer (client.Stream treats a missing trailer as a torn stream).
func TestRouterStreaming(t *testing.T) {
	_, rs, single := startCluster(t, 2)
	src := `SELECT * WHERE { { ?d <directed> ?m . } UNION { ?x <awarded> ?a . } }`

	c, err := client.New(rs.URL)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.QueryStream(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var rows [][]*string
	for st.Next() {
		rows = append(rows, append([]*string{}, st.Row()...))
	}
	if err := st.Err(); err != nil {
		t.Fatalf("stream: %v", err)
	}
	if st.Stats() == nil || st.Stats().Results != len(rows) {
		t.Fatalf("stats trailer %+v for %d rows", st.Stats(), len(rows))
	}
	want := queryVia(t, single.URL, src)
	if fmt.Sprint(canonRows(rows)) != fmt.Sprint(canonRows(want.Rows)) {
		t.Fatalf("streamed rows %v, single node %v", canonRows(rows), canonRows(want.Rows))
	}
}

// Writes split by placement, land on the owning primaries, and the
// cluster keeps answering like a single node that applied the same delta.
func TestRouterApply(t *testing.T) {
	_, rs, single := startCluster(t, 2)
	adds := []dualsim.Triple{
		dualsim.T("N._Roeg", "directed", "Walkabout"),
		dualsim.T("N._Roeg", "awarded", "BAFTA_Awards"),
		dualsim.T("Walkabout", "genre", "Drama"),
	}

	rc, err := client.New(rs.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rc.ApplyDelta(context.Background(), dualsim.Delta{Adds: adds}); err != nil {
		t.Fatalf("apply via router: %v", err)
	}
	sc, err := client.New(single.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.ApplyDelta(context.Background(), dualsim.Delta{Adds: adds}); err != nil {
		t.Fatal(err)
	}

	src := `SELECT * WHERE { ?d <directed> ?m . ?d <awarded> ?a . }`
	got, want := queryVia(t, rs.URL, src), queryVia(t, single.URL, src)
	if fmt.Sprint(canonRows(got.Rows)) != fmt.Sprint(canonRows(want.Rows)) {
		t.Fatalf("post-apply rows %v, single node %v", canonRows(got.Rows), canonRows(want.Rows))
	}
	if got.Epoch == 0 {
		t.Fatal("router reports epoch 0 after an apply")
	}
}

// A variable in predicate position cannot be routed; the router must
// reject it up front like the engine would.
func TestRouterRejectsVariablePredicates(t *testing.T) {
	_, rs, _ := startCluster(t, 2)
	c, err := client.New(rs.URL)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Query(context.Background(), `SELECT * WHERE { ?s ?p ?o . }`)
	var ae *client.APIError
	if err == nil || !asAPIError(err, &ae) || ae.StatusCode != 400 {
		t.Fatalf("variable predicate: %v, want 400", err)
	}
}

func asAPIError(err error, target **client.APIError) bool {
	for err != nil {
		if ae, ok := err.(*client.APIError); ok {
			*target = ae
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// Failover: with two endpoints serving a shard, killing one must not
// lose reads — in-flight requests fail over, and after a probe the dead
// endpoint stops being routed to while /readyz stays green. Only when
// the LAST endpoint of a shard dies does the router go not-ready.
func TestRouterFailover(t *testing.T) {
	full, err := dualsim.FromTriples(queries.Fig1aTriples())
	if err != nil {
		t.Fatal(err)
	}
	const n = 2
	var endpoints [][]string
	var shard0Primary, shard0Replica *httptest.Server
	for i := 0; i < n; i++ {
		st, err := cluster.ShardStore(full, cluster.ShardSpec{Index: i, N: n})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			shard0Primary = startShard(t, st)
			shard0Replica = startShard(t, st)
			endpoints = append(endpoints, []string{shard0Primary.URL, shard0Replica.URL})
		} else {
			endpoints = append(endpoints, []string{startShard(t, st).URL})
		}
	}
	rt, err := New(endpoints)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rt.Probe(ctx)
	if err := rt.Ready(); err != nil {
		t.Fatalf("probed router not ready: %v", err)
	}
	rs := httptest.NewServer(rt.Handler())
	defer rs.Close()

	src := `SELECT * WHERE { ?d <directed> ?m . }`
	want := len(queryVia(t, rs.URL, src).Rows)
	if want == 0 {
		t.Fatal("reference query empty; pick another predicate")
	}

	// Kill shard 0's primary without telling the router: reads must
	// fail over in-flight (round-robin hits the corpse half the time).
	shard0Primary.Close()
	for i := 0; i < 4; i++ {
		if got := len(queryVia(t, rs.URL, src).Rows); got != want {
			t.Fatalf("query %d after primary death: %d rows, want %d", i, got, want)
		}
	}
	rt.Probe(ctx)
	if err := rt.Ready(); err != nil {
		t.Fatalf("router not ready with a live replica: %v", err)
	}

	// The whole shard gone: not-ready, and reads answer 503.
	shard0Replica.Close()
	rt.Probe(ctx)
	if err := rt.Ready(); err == nil {
		t.Fatal("router ready with shard 0 fully dead")
	}
	c, _ := client.New(rs.URL)
	if _, err := c.Ready(ctx); err == nil {
		t.Fatal("/readyz green with shard 0 fully dead")
	}
}

// pick's bounded-staleness rule, directly: a lagging replica is skipped
// until maxLag admits it, and an empty shard yields no candidates.
func TestPickBoundedStaleness(t *testing.T) {
	mk := func(role string, up, ready bool, epoch uint64) *endpoint {
		return &endpoint{url: "http://" + role, role: role, up: up, ready: ready, epoch: epoch}
	}
	sh := &shard{eps: []*endpoint{
		mk("primary", true, true, 10),
		mk("replica", true, true, 7),
	}}
	urls := func(eps []*endpoint) string {
		var out []string
		for _, e := range eps {
			out = append(out, e.url)
		}
		sort.Strings(out)
		return strings.Join(out, ",")
	}

	// maxLag 0: only the fresh primary is a first-class candidate (the
	// lagging replica remains a degraded fallback at the tail).
	got := sh.pick(0)
	if len(got) == 0 || got[0].url != "http://primary" {
		t.Fatalf("maxLag 0 picked %v", urls(got))
	}
	// maxLag 3 admits the replica as a peer.
	if got := sh.pick(3); urls(got[:2]) != "http://primary,http://replica" {
		t.Fatalf("maxLag 3 picked %v", urls(got))
	}
	// Dead endpoints never route.
	sh.eps[0].up, sh.eps[1].up = false, false
	if got := sh.pick(10); len(got) != 0 {
		t.Fatalf("dead shard picked %v", urls(got))
	}
}

// End-to-end with a real replica: the router load-balances onto a
// follower-fed read replica and keeps answering when the primary dies.
func TestRouterWithLiveReplica(t *testing.T) {
	full, err := dualsim.FromTriples(queries.Fig1aTriples())
	if err != nil {
		t.Fatal(err)
	}
	// One-shard cluster: a durable primary plus a WAL-streaming replica.
	st, err := cluster.ShardStore(full, cluster.ShardSpec{Index: 0, N: 1})
	if err != nil {
		t.Fatal(err)
	}
	pdb, err := dualsim.Open(st, dualsim.WithDataDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer pdb.Close()
	psrv, err := server.New(pdb)
	if err != nil {
		t.Fatal(err)
	}
	primary := httptest.NewServer(psrv)
	defer primary.Close()

	f, err := cluster.Follow(primary.URL, cluster.WithPollWait(50_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	rsrv, err := server.New(f.DB(), server.WithReadOnly(), server.WithReadiness(f.Ready))
	if err != nil {
		t.Fatal(err)
	}
	replica := httptest.NewServer(rsrv)
	defer replica.Close()

	rt, err := New([][]string{{primary.URL, replica.URL}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rt.Probe(ctx)
	rs := httptest.NewServer(rt.Handler())
	defer rs.Close()

	src := `SELECT * WHERE { ?d <directed> ?m . ?d <worked_with> ?c . }`
	want := len(queryVia(t, rs.URL, src).Rows)

	primary.Close()
	rt.Probe(ctx)
	if err := rt.Ready(); err != nil {
		t.Fatalf("router not ready on the replica alone: %v", err)
	}
	if got := len(queryVia(t, rs.URL, src).Rows); got != want {
		t.Fatalf("replica-served query: %d rows, want %d", got, want)
	}
}

// The distributed tracing acceptance bar: a traced routed query returns
// ONE span tree rooted at the router's fan-out span, with every shard's
// pipeline subtree stitched under its branch span carrying the SAME
// trace ID — the W3C traceparent the router injected.
func TestRouterTraceStitching(t *testing.T) {
	_, rs, _ := startCluster(t, 2)
	c, err := client.New(rs.URL)
	if err != nil {
		t.Fatal(err)
	}
	// Two single-predicate branches: each pushes down to the shard that
	// owns its predicate, so each branch carries a shard subtree back.
	src := `SELECT * WHERE { { ?s <genre> ?g . } UNION { ?p <population> ?n . } }`
	out, err := c.Query(context.Background(), src, client.Trace())
	if err != nil {
		t.Fatal(err)
	}
	root := out.Stats.Trace
	if root == nil {
		t.Fatal("traced routed query returned no span tree")
	}
	if root.Name != "router.fanout" {
		t.Fatalf("root span %q, want router.fanout", root.Name)
	}
	if len(root.TraceID) != 32 {
		t.Fatalf("root TraceID %q, want 32 hex chars", root.TraceID)
	}

	var branches, stitched int
	for _, br := range root.Children {
		if br.Name != "branch" {
			continue
		}
		branches++
		if br.Attrs["mode"] != "pushdown" {
			t.Errorf("branch %s: mode %q, want pushdown", br.Attrs["branch"], br.Attrs["mode"])
		}
		sub := br.Find("query") // the shard daemon's root span
		if sub == nil {
			t.Errorf("branch %s: no shard subtree stitched", br.Attrs["branch"])
			continue
		}
		stitched++
		if sub.TraceID != root.TraceID {
			t.Errorf("branch %s: shard subtree trace ID %q, router %q",
				br.Attrs["branch"], sub.TraceID, root.TraceID)
		}
		if sub.Find("evaluate") == nil {
			t.Errorf("branch %s: shard subtree misses the evaluate stage span", br.Attrs["branch"])
		}
	}
	if branches != 2 || stitched != 2 {
		t.Fatalf("stitched %d subtrees under %d branch spans, want 2/2", stitched, branches)
	}

	// Untraced control: same query, no trace in the trailer.
	plain, err := c.Query(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Stats.Trace != nil {
		t.Fatalf("untraced routed query leaked a trace")
	}
}

// The router's slow-query log records routed queries with their fan-out
// trace even when the client asked for none.
func TestRouterSlowQueryLog(t *testing.T) {
	_, rs, _ := startCluster(t, 2, WithProtocol(server.WithSlowQueryLog(4, 0)))
	src := `SELECT * WHERE { ?s <genre> ?g . }`
	if got := queryVia(t, rs.URL, src); got.Stats.Trace != nil {
		t.Fatalf("slow-log tracing leaked into an untraced response")
	}
	c, err := client.New(rs.URL)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := c.SlowQueries(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if slow.Total != 1 || len(slow.Entries) != 1 {
		t.Fatalf("slow log: total %d, %d entries, want 1/1", slow.Total, len(slow.Entries))
	}
	e := slow.Entries[0]
	if e.Query != src || e.TraceID == "" || e.Trace == nil || e.Trace.Name != "router.fanout" {
		t.Fatalf("slow entry = %+v", e)
	}
}

// TestRouterStatementsMerged pins the cluster-wide workload statistics
// view: the router scrapes every shard's /v1/debug/statements and
// merges by fingerprint — calls sum across shards, so the router-level
// count for any fingerprint equals the sum of the per-shard counts.
// Push-down routing records on the owning shard; a statement executed
// on both shards (here: posted to each directly, as replicated clients
// do) aggregates across them.
func TestRouterStatementsMerged(t *testing.T) {
	full, err := dualsim.FromTriples(queries.Fig1aTriples())
	if err != nil {
		t.Fatal(err)
	}
	var endpoints [][]string
	var shards []*httptest.Server
	for i := 0; i < 2; i++ {
		st, err := cluster.ShardStore(full, cluster.ShardSpec{Index: i, N: 2})
		if err != nil {
			t.Fatal(err)
		}
		hs := startShard(t, st)
		shards = append(shards, hs)
		endpoints = append(endpoints, []string{hs.URL})
	}
	rt, err := New(endpoints)
	if err != nil {
		t.Fatal(err)
	}
	rt.Probe(context.Background())
	rs := httptest.NewServer(rt.Handler())
	t.Cleanup(rs.Close)

	// Single-predicate scans push down to the owning shard, recording
	// there; run one twice so aggregation is visible.
	src := `SELECT * WHERE { ?s <genre> ?g . }`
	queryVia(t, rs.URL, src)
	queryVia(t, rs.URL, src)
	// The same statement executed on both shards directly must merge
	// into one row whose calls are the cross-shard sum.
	shared := `SELECT * WHERE { ?d <directed> ?m . }`
	queryVia(t, shards[0].URL, shared)
	queryVia(t, shards[1].URL, shared)

	statements := func(url string) map[string]int64 {
		c, err := client.New(url)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := c.Statements(context.Background())
		if err != nil {
			t.Fatalf("statements via %s: %v", url, err)
		}
		calls := make(map[string]int64)
		for i := range resp.Statements {
			calls[resp.Statements[i].Fingerprint] += resp.Statements[i].Calls
		}
		return calls
	}
	merged := statements(rs.URL)
	if len(merged) == 0 {
		t.Fatal("router merged view is empty")
	}
	perShard := []map[string]int64{statements(shards[0].URL), statements(shards[1].URL)}
	crossShard := 0
	for f, callsMerged := range merged {
		sum := perShard[0][f] + perShard[1][f]
		if callsMerged != sum {
			t.Errorf("fingerprint %s: merged calls %d, shard sum %d", f, callsMerged, sum)
		}
		if perShard[0][f] > 0 && perShard[1][f] > 0 {
			if callsMerged != 2 {
				t.Errorf("cross-shard fingerprint %s: merged calls %d, want 2", f, callsMerged)
			}
			crossShard++
		}
	}
	if crossShard == 0 {
		t.Fatalf("no fingerprint aggregated across both shards: %v vs %v", perShard[0], perShard[1])
	}

	// ?reset=1 through the router clears every shard.
	c, err := client.New(rs.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.StatementsReset(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i, hs := range shards {
		if got := statements(hs.URL); len(got) != 0 {
			t.Errorf("shard %d not reset: %v", i, got)
		}
	}
}

// EXPLAIN through the router: a query whose predicates all live on one
// shard is forwarded to that shard and answers with its plan; a query
// that scatters has no single plan and is refused with the reason —
// never answered with result rows, which is what the router did before
// explain was resolved in the protocol core.
func TestRouterExplain(t *testing.T) {
	_, rs, _ := startCluster(t, 2)
	c, err := client.New(rs.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, mode := range []string{"plan", "analyze"} {
		out, err := c.Explain(ctx, `SELECT * WHERE { ?s <genre> ?g . }`, mode)
		if err != nil {
			t.Fatalf("explain %s of a push-down query: %v", mode, err)
		}
		if out.Explain == nil || len(out.Explain.Operators) == 0 || !strings.Contains(out.Text, "genre") {
			t.Fatalf("explain %s: no plan in %+v", mode, out)
		}
		if out.Explain.Analyzed != (mode == "analyze") {
			t.Fatalf("explain %s: analyzed = %v", mode, out.Explain.Analyzed)
		}
	}

	// Two Fig. 1(a) predicates the placement function puts on different
	// shards.
	preds := []string{"directed", "worked_with", "genre", "population", "born_in", "awarded"}
	var spread string
	for _, p := range preds[1:] {
		if cluster.ShardOf(p, 2) != cluster.ShardOf(preds[0], 2) {
			spread = fmt.Sprintf(`SELECT * WHERE { { ?a <%s> ?b . } UNION { ?c <%s> ?d . } }`, preds[0], p)
			break
		}
	}
	if spread == "" {
		t.Fatal("every fixture predicate places on one shard; pick others")
	}
	_, err = c.Explain(ctx, spread, "plan")
	var ae *client.APIError
	if err == nil || !asAPIError(err, &ae) || ae.StatusCode != 400 || !strings.Contains(ae.Message, "more than one shard") {
		t.Fatalf("explain of a scattered query: %v, want 400 naming the reason", err)
	}
}

// A routed batch takes one admission slot however many members it has,
// and fans its members out at most GOMAXPROCS at a time — before, every
// member got its own goroutine, so one request body could open as many
// concurrent shard RPCs as it had queries.
func TestRouterBatchBoundedFanOut(t *testing.T) {
	full, err := dualsim.FromTriples(queries.Fig1aTriples())
	if err != nil {
		t.Fatal(err)
	}
	var cur, peak atomic.Int64
	var endpoints [][]string
	for i := 0; i < 2; i++ {
		st, err := cluster.ShardStore(full, cluster.ShardSpec{Index: i, N: 2})
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
		// Count the shard queries in flight, holding each long enough
		// that an unbounded fan-out would pile up.
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/query" {
				n := cur.Add(1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				time.Sleep(5 * time.Millisecond)
				defer cur.Add(-1)
			}
			srv.ServeHTTP(w, r)
		}))
		t.Cleanup(func() {
			hs.Close()
			db.Close()
		})
		endpoints = append(endpoints, []string{hs.URL})
	}
	// One slot, no queue: members that took slots of their own would shed.
	rt, err := New(endpoints, WithProtocol(server.WithMaxInFlight(1), server.WithQueueDepth(0)))
	if err != nil {
		t.Fatal(err)
	}
	rt.Probe(context.Background())
	rs := httptest.NewServer(rt.Handler())
	defer rs.Close()

	width := runtime.GOMAXPROCS(0)
	srcs := make([]string, 16*width)
	for i := range srcs {
		srcs[i] = `SELECT * WHERE { ?s <genre> ?g . }`
	}
	c, err := client.New(rs.URL)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Batch(context.Background(), srcs)
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.Requests != len(srcs) || out.Stats.Failed != 0 {
		t.Fatalf("batch stats: %+v", out.Stats)
	}
	for i, it := range out.Results {
		if it.Error != "" || len(it.Rows) != 2 {
			t.Fatalf("member %d: %+v", i, it)
		}
	}
	if got := peak.Load(); got > int64(width) {
		t.Fatalf("%d shard queries in flight at once, want at most GOMAXPROCS = %d", got, width)
	}
}

// A shard that answers 200 and then reports, in-band, that the
// execution died (a deadline, a memory budget) has judged the request;
// it is not down. The router relays the failure as a bad gateway and
// keeps routing to the endpoint.
func TestRouterRelaysInBandFailure(t *testing.T) {
	var seen atomic.Int64
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			io.WriteString(w, `{"status":"ready","epoch":3}`)
			return
		}
		seen.Add(1)
		w.Header().Set("Content-Type", wire.ContentTypeNDJSON)
		io.WriteString(w, `{"kind":"header","vars":["s","o"],"epoch":3}`+"\n"+
			`{"kind":"row","epoch":3,"values":["<a>","<b>"]}`+"\n"+
			`{"kind":"error","epoch":3,"error":"query exceeded its memory budget"}`+"\n")
	}))
	defer shard.Close()
	rt, err := New([][]string{{shard.URL}})
	if err != nil {
		t.Fatal(err)
	}
	rt.Probe(context.Background())
	rs := httptest.NewServer(rt.Handler())
	defer rs.Close()
	c, err := client.New(rs.URL, client.WithRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Query(context.Background(), `SELECT * WHERE { ?s <p> ?o . }`)
	var ae *client.APIError
	if !asAPIError(err, &ae) || ae.StatusCode != http.StatusBadGateway || !strings.Contains(ae.Message, "memory budget") {
		t.Fatalf("routed query: %v, want 502 carrying the shard's message", err)
	}
	if got := seen.Load(); got != 1 {
		t.Errorf("the shard saw %d queries, want 1 (no failover on a verdict)", got)
	}
	if err := rt.Ready(); err != nil {
		t.Errorf("the shard was marked down by its own verdict: %v", err)
	}
}
