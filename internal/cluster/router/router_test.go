package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"maps"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dualsim"
	"dualsim/client"
	"dualsim/internal/cluster"
	"dualsim/internal/metrics"
	"dualsim/internal/queries"
	"dualsim/internal/server"
	"dualsim/internal/wire"
)

// startShard serves one store as a daemon would.
func startShard(t *testing.T, st *dualsim.Store, opts ...server.Option) *httptest.Server {
	return startShardVia(t, st, nil, opts...)
}

// startShardVia is startShard with the daemon served through wrap when
// it is not nil.
func startShardVia(t *testing.T, st *dualsim.Store, wrap func(http.Handler) http.Handler, opts ...server.Option) *httptest.Server {
	t.Helper()
	db, err := dualsim.Open(st)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(db, opts...)
	if err != nil {
		t.Fatal(err)
	}
	var h http.Handler = srv
	if wrap != nil {
		h = wrap(srv)
	}
	hs := httptest.NewServer(h)
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

func queryVia(t *testing.T, url, src string) *client.QueryResponse {
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
// single node over the unpartitioned store, with identical columns and
// the same statement fingerprint in the stats trailer.
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
			// The trailer names the statement a single node would.
			if got.Stats == nil || want.Stats == nil || got.Stats.Fingerprint == "" || got.Stats.Fingerprint != want.Stats.Fingerprint {
				t.Errorf("n=%d %q: router stats %+v, single node %+v: fingerprints differ", n, src, got.Stats, want.Stats)
			}
		}
		_ = rt
	}
}

// TestSelectStarColumnOrder: SELECT * columns come in the order their
// variables first occur in the text, whatever order the plan binds them
// in — in process (Result and Rows), from a daemon, and through a router
// over 2 shards, which inherits the order from its shards and from its
// local evaluation of a gathered branch. The plan of the text scans the
// constant-anchored pattern first and so binds ?b before ?a.
func TestSelectStarColumnOrder(t *testing.T) {
	const src = `SELECT * WHERE { ?a <worked_with> ?b . ?b <directed> <Mortdecai> . }`
	want := []string{"a", "b"}
	full, err := dualsim.FromTriples(queries.Fig1aTriples())
	if err != nil {
		t.Fatal(err)
	}
	db, err := dualsim.Open(full)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	ex, err := db.Explain(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	if leaf := ex.Operators[0]; leaf.Op != "scan" || !strings.HasPrefix(leaf.Detail, "?b ") {
		t.Fatalf("the plan starts with %s %s, not with the scan binding ?b", leaf.Op, leaf.Detail)
	}
	res, _, err := db.Query(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Vars, want) || res.Len() != 2 {
		t.Fatalf("in process: vars %v, %d rows; want %v, 2 rows", res.Vars, res.Len(), want)
	}
	rows, err := db.Snapshot().QueryStream(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rows.Vars(), want) || !rows.Next() || !slices.Equal(rows.Row(), res.Row(0)) {
		t.Fatalf("in-process stream: vars %v, want %v; or its first row is not Query's", rows.Vars(), want)
	}
	rows.Close()

	_, rs, single := startCluster(t, 2)
	for _, via := range []struct{ name, url string }{{"daemon", single.URL}, {"router over 2 shards", rs.URL}} {
		got := queryVia(t, via.url, src)
		if !slices.Equal(got.Vars, want) || len(got.Rows) != 2 {
			t.Errorf("%s: vars %v, %d rows; want %v, 2 rows", via.name, got.Vars, len(got.Rows), want)
		}
	}
}

// TestRouterDefinesEachTermOnce: a pushed-down branch with more
// distinct terms than a 4 096-slot memo holds, each object in two rows
// far apart, crosses both hops defining every cell once: the shard's
// stream and the router's response each have one term line per
// distinct cell, and the rows are the single node's.
func TestRouterDefinesEachTermOnce(t *testing.T) {
	const subjects = 3000
	var triples []dualsim.Triple
	for i := range subjects {
		s := fmt.Sprintf("http://example.org/s%d", i)
		triples = append(triples,
			dualsim.T(s, "p", fmt.Sprintf("http://example.org/o%d", i)),
			dualsim.T(s, "p", fmt.Sprintf("http://example.org/o%d", (i+subjects/2)%subjects)))
	}
	full, err := dualsim.FromTriples(triples)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var shardStreams [][]byte
	record := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/query" {
				h.ServeHTTP(w, r)
				return
			}
			tee := &teeWriter{ResponseWriter: w}
			h.ServeHTTP(tee, r)
			mu.Lock()
			shardStreams = append(shardStreams, tee.body)
			mu.Unlock()
		})
	}
	var endpoints [][]string
	for i := range 2 {
		st, err := cluster.ShardStore(full, cluster.ShardSpec{Index: i, N: 2})
		if err != nil {
			t.Fatal(err)
		}
		endpoints = append(endpoints, []string{startShardVia(t, st, record).URL})
	}
	rt, err := New(endpoints)
	if err != nil {
		t.Fatal(err)
	}
	rt.Probe(context.Background())
	rs := httptest.NewServer(rt.Handler())
	t.Cleanup(rs.Close)

	const src = `SELECT * WHERE { ?s <p> ?o . }`
	resp, err := http.Post(rs.URL+"/v1/query", "application/json", strings.NewReader(fmt.Sprintf(`{"query":%q}`, src)))
	if err != nil {
		t.Fatal(err)
	}
	routed, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("routed stream: status %d, %v", resp.StatusCode, err)
	}
	mu.Lock()
	streams := slices.Clone(shardStreams)
	mu.Unlock()
	if len(streams) != 1 {
		t.Fatalf("%d shard streams, want the one pushed-down branch", len(streams))
	}
	for _, hop := range []struct {
		name   string
		stream []byte
	}{{"shard", streams[0]}, {"router", routed}} {
		terms, cells := 0, map[string]bool{}
		for _, line := range bytes.Split(hop.stream, []byte{'\n'}) {
			if len(line) > 0 && line[0] == '"' {
				terms++
				cells[string(line)] = true
			}
		}
		if terms != 2*subjects || len(cells) != 2*subjects {
			t.Errorf("%s stream: %d term lines for %d distinct cells, want %d of each", hop.name, terms, len(cells), 2*subjects)
		}
	}

	c, err := client.New(rs.URL)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.QueryStream(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]*string
	for st.Next() {
		rows = append(rows, slices.Clone(st.Row()))
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	st.Close()
	want := queryVia(t, startShard(t, full).URL, src)
	if got, want := canonRows(rows), canonRows(want.Rows); len(got) != 2*subjects || !slices.Equal(got, want) {
		t.Fatalf("routed %d rows, single node %d, or they differ", len(got), len(want))
	}
}

// teeWriter keeps a copy of the body it passes on, flushes included.
type teeWriter struct {
	http.ResponseWriter
	body []byte
}

func (w *teeWriter) Write(p []byte) (int, error) {
	w.body = append(w.body, p...)
	return w.ResponseWriter.Write(p)
}

func (w *teeWriter) Flush() { w.ResponseWriter.(http.Flusher).Flush() }

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
	rt, rs, single := startCluster(t, 2)
	adds := []dualsim.Triple{
		dualsim.T("N._Roeg", "directed", "Walkabout"),
		dualsim.T("N._Roeg", "awarded", "BAFTA_Awards"),
		dualsim.T("Walkabout", "genre", "Drama"),
	}
	src := `SELECT * WHERE { ?d <directed> ?m . ?d <awarded> ?a . ?m <genre> ?g . }` // shards 1 and 0 of 2
	same := func(when string) *client.QueryResponse {
		t.Helper()
		got, want := queryVia(t, rs.URL, src), queryVia(t, single.URL, src)
		if fmt.Sprint(canonRows(got.Rows)) != fmt.Sprint(canonRows(want.Rows)) {
			t.Fatalf("%s rows %v, single node %v", when, canonRows(got.Rows), canonRows(want.Rows))
		}
		return got
	}
	// Gathered before the apply: the router holds the slices of epoch 0,
	// and a repeat answers from them.
	before := len(same("pre-apply").Rows)
	same("pre-apply, repeated")
	if rt.gathers.Value() != 2 || rt.reuses.Value() != 1 {
		t.Fatalf("pre-apply: %d gathers, %d reuses; want 2 and 1", rt.gathers.Value(), rt.reuses.Value())
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

	if got := same("post-apply"); got.Epoch == 0 || len(got.Rows) <= before {
		t.Fatalf("post-apply: epoch %d, %d rows (%d before); want a new epoch and more rows", got.Epoch, len(got.Rows), before)
	}
	if rt.reuses.Value() != 1 {
		t.Fatalf("the gather after the apply reused a held session (%d reuses)", rt.reuses.Value())
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

	f, err := cluster.Follow(primary.URL)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	rsrv, err := server.NewReplica(f)
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
	_, rs, _ := startCluster(t, 2, WithProtocol(server.WithSlowQueryLog(0)))
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

// TestRouterStatementsMergeReplicas: reads alternate between a
// shard's primary and its replica, so each records part of the calls.
// The merged view must hold every fingerprint of both tables with
// calls equal to their sum, and a reset must clear both.
func TestRouterStatementsMergeReplicas(t *testing.T) {
	ctx := context.Background()
	pdb, err := dualsim.Open(shardOfTriples(t, queries.Fig1aTriples(), 0), dualsim.WithDataDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pdb.Close() })
	psrv, err := server.New(pdb)
	if err != nil {
		t.Fatal(err)
	}
	primary := httptest.NewServer(psrv)
	t.Cleanup(primary.Close)
	f, err := cluster.Follow(primary.URL)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	rsrv, err := server.NewReplica(f)
	if err != nil {
		t.Fatal(err)
	}
	replica := httptest.NewServer(rsrv)
	t.Cleanup(replica.Close)
	shard1 := startShard(t, shardOfTriples(t, queries.Fig1aTriples(), 1))
	rt, err := New([][]string{{primary.URL, replica.URL}, {shard1.URL}})
	if err != nil {
		t.Fatal(err)
	}
	rt.Probe(ctx)
	rs := httptest.NewServer(rt.Handler())
	t.Cleanup(rs.Close)

	// A text on shard 0's <genre>, run often enough to land on both
	// endpoints, and one on shard 1's <directed>.
	for range 4 {
		queryVia(t, rs.URL, `SELECT * WHERE { ?m <genre> ?g . }`)
	}
	queryVia(t, rs.URL, `SELECT * WHERE { ?d <directed> ?m . }`)

	statements := func(url string) map[string]int64 {
		t.Helper()
		c, err := client.New(url)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := c.Statements(ctx)
		if err != nil {
			t.Fatalf("statements via %s: %v", url, err)
		}
		calls := make(map[string]int64)
		for _, s := range resp.Statements {
			calls[s.Fingerprint] += s.Calls
		}
		return calls
	}
	tables := []map[string]int64{statements(primary.URL), statements(replica.URL), statements(shard1.URL)}
	if len(tables[0]) == 0 || len(tables[1]) == 0 {
		t.Fatalf("reads did not reach both shard 0 endpoints: primary %v, replica %v", tables[0], tables[1])
	}
	sum := make(map[string]int64)
	for _, table := range tables {
		for f, c := range table {
			sum[f] += c
		}
	}
	if merged := statements(rs.URL); !maps.Equal(merged, sum) {
		t.Fatalf("merged calls %v, want the endpoints' sum %v", merged, sum)
	}

	c, err := client.New(rs.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.StatementsReset(ctx); err != nil {
		t.Fatal(err)
	}
	for _, url := range []string{primary.URL, replica.URL, shard1.URL} {
		if got := statements(url); len(got) != 0 {
			t.Errorf("%s not reset: %v", url, got)
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

// routedVerdict routes one query to a single fake shard whose every
// query is answered by answer, and returns the routed query's error
// and how many queries the shard saw.
func routedVerdict(t *testing.T, answer func(w http.ResponseWriter)) (*Router, int64, error) {
	t.Helper()
	var seen atomic.Int64
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			io.WriteString(w, `{"status":"ready","epoch":3}`)
			return
		}
		seen.Add(1)
		answer(w)
	}))
	t.Cleanup(shard.Close)
	rt, err := New([][]string{{shard.URL}})
	if err != nil {
		t.Fatal(err)
	}
	rt.Probe(context.Background())
	rs := httptest.NewServer(rt.Handler())
	t.Cleanup(rs.Close)
	c, err := client.New(rs.URL, client.WithRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Query(context.Background(), `SELECT * WHERE { ?s <p> ?o . }`)
	return rt, seen.Load(), err
}

// A shard that answers 200 and then reports, in-band, that the
// execution died (a deadline, a memory budget) has judged the request;
// it is not down. The router, which has relayed the row by then, ends
// its own stream with the failure and keeps routing to the endpoint.
func TestRouterRelaysInBandFailure(t *testing.T) {
	rt, seen, err := routedVerdict(t, func(w http.ResponseWriter) {
		w.Header().Set("Content-Type", wire.ContentTypeNDJSON)
		io.WriteString(w, `{"kind":"header","vars":["s","o"],"epoch":3}`+"\n"+
			`"<a>"`+"\n"+`"<b>"`+"\n"+"[0,1]\n"+
			`{"kind":"error","epoch":3,"error":"query exceeded its memory budget"}`+"\n")
	})
	var se *client.StreamError
	if !errors.As(err, &se) || !strings.Contains(se.Message, "memory budget") {
		t.Fatalf("routed query: %v, want the shard's message in-band", err)
	}
	if seen != 1 {
		t.Errorf("the shard saw %d queries, want 1 (no failover on a verdict)", seen)
	}
	if err := rt.Ready(); err != nil {
		t.Errorf("the shard was marked down by its own verdict: %v", err)
	}
}

// A shard whose own deadline expires before its first row answers 504:
// its verdict on the request, as a 4xx is, not the endpoint failing.
// The router relays the 504 with the shard's message, does not fail
// over and keeps routing to the endpoint.
func TestRouterRelaysShardTimeout(t *testing.T) {
	rt, seen, err := routedVerdict(t, func(w http.ResponseWriter) {
		w.Header().Set("Content-Type", wire.ContentTypeJSON)
		w.WriteHeader(http.StatusGatewayTimeout)
		io.WriteString(w, `{"error":"deadline exceeded: context deadline exceeded"}`+"\n")
	})
	var ae *client.APIError
	if !asAPIError(err, &ae) || ae.StatusCode != http.StatusGatewayTimeout || !strings.Contains(ae.Message, "deadline exceeded") {
		t.Fatalf("routed query: %v, want 504 carrying the shard's message", err)
	}
	if seen != 1 {
		t.Errorf("the shard saw %d queries, want 1 (no failover on a verdict)", seen)
	}
	if err := rt.Ready(); err != nil {
		t.Errorf("the shard was marked down by its own verdict: %v", err)
	}
}

// TestRelayRefusesBadLines: a relayed branch crosses the router as its
// shard wrote it, but every line is still checked. A shard that sends
// a term line that is not one JSON string, a row of the wrong width or
// a row naming a term it has not defined, after a good row, fails the
// routed answer in-band: the answer ends with the error event, naming
// the line's fault, and every line before it is one the client reads,
// so the bad line never reaches the client. The bad line is checked
// where it is relayed: in branch 0, read as it arrives, and in branch
// 1, read ahead while branch 0 is relayed.
func TestRelayRefusesBadLines(t *testing.T) {
	const good = `"<a>"` + "\n" + `"<b>"` + "\n[0,1]\n"
	for _, bad := range []struct{ name, line, fault string }{
		{"term line", `"<c>"x`, "not exactly one JSON string"},
		{"row width", "[0,1,0]", "a row of 3 values under 2 variables"},
		{"undefined term", "[0,2]", "names term 2, but the stream has defined 2"},
	} {
		body := func(src string, broken bool) string {
			out := `{"kind":"header","vars":["s","o"],"epoch":0}` + "\n" + good
			if broken {
				out += bad.line + "\n"
			}
			return out + `"<z>"` + "\n[2,0]\n" + `{"kind":"stats","epoch":0,"rows":2}` + "\n"
		}
		for _, tc := range []struct {
			name, src, breaks string // breaks: the predicate whose branch the shard breaks
			rows              int    // the rows before the bad line
		}{
			{"branch 0", `SELECT * WHERE { ?s <p> ?o . }`, "<p>", 1},
			{"branch 1", `SELECT * WHERE { { ?s <p> ?o . } UNION { ?a <q> ?b . } }`, "<q>", 3},
		} {
			t.Run(bad.name+"/"+tc.name, func(t *testing.T) {
				shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if r.URL.Path == "/readyz" {
						io.WriteString(w, `{"status":"ready","epoch":0}`)
						return
					}
					var req wire.QueryRequest
					if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
						t.Error(err)
					}
					w.Header().Set("Content-Type", wire.ContentTypeNDJSON)
					io.WriteString(w, body(req.Query, strings.Contains(req.Query, tc.breaks)))
				}))
				t.Cleanup(shard.Close)
				rt, err := New([][]string{{shard.URL}})
				if err != nil {
					t.Fatal(err)
				}
				rt.Probe(context.Background())
				rs := httptest.NewServer(rt.Handler())
				t.Cleanup(rs.Close)
				resp, err := http.Post(rs.URL+"/v1/query", wire.ContentTypeJSON, strings.NewReader(fmt.Sprintf(`{"query":%q}`, tc.src)))
				if err != nil {
					t.Fatal(err)
				}
				answer, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Fatalf("status %d, %v", resp.StatusCode, err)
				}
				lines := strings.Split(strings.TrimSuffix(string(answer), "\n"), "\n")
				var last wire.Event
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || last.Kind != wire.EventError ||
					!strings.Contains(last.Error, "bad stream line") || !strings.Contains(last.Error, bad.fault) {
					t.Fatalf("the answer ends %q (%v), want the error event naming %q:\n%s", lines[len(lines)-1], err, bad.fault, answer)
				}
				var tab wire.TermTable
				rows := 0
				for _, line := range lines[1 : len(lines)-1] {
					kind, err := tab.Read([]byte(line), 2, true)
					if err != nil || kind == wire.LineEvent {
						t.Fatalf("the answer carries %q (%v) before its error event:\n%s", line, err, answer)
					}
					if kind == wire.LineRow {
						rows++
					}
				}
				if rows != tc.rows || rt.relayed.Value() != int64(tc.rows) {
					t.Fatalf("%d rows before the error event, %d counted relayed; want %d of each", rows, rt.relayed.Value(), tc.rows)
				}
			})
		}
	}
}

// TestGatherRejectsBadSlices: a gather fails with 502 and names the
// cause when a shard answers the export in anything but the snapshot
// container — a shard of an older build sending JSON is never misread —
// and when two shards hand back the same predicate.
func TestGatherRejectsBadSlices(t *testing.T) {
	ctx := context.Background()
	full, err := dualsim.FromTriples(queries.Fig1aTriples())
	if err != nil {
		t.Fatal(err)
	}
	const src = `SELECT * WHERE { ?d <directed> ?m . ?m <genre> ?g . }` // shard 1 and shard 0 of 2

	// Shard 1 answers /v1/export with the JSON body older builds sent.
	st, err := cluster.ShardStore(full, cluster.ShardSpec{Index: 1, N: 2})
	if err != nil {
		t.Fatal(err)
	}
	db, err := dualsim.Open(st)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	srv, err := server.New(db)
	if err != nil {
		t.Fatal(err)
	}
	legacy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/export" {
			w.Header().Set("Content-Type", wire.ContentTypeJSON)
			io.WriteString(w, `{"epoch":0,"triples":[{"s":"a","p":"directed","o":"b"}]}`)
			return
		}
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(legacy.Close)
	st0, err := cluster.ShardStore(full, cluster.ShardSpec{Index: 0, N: 2})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New([][]string{{startShard(t, st0).URL}, {legacy.URL}})
	if err != nil {
		t.Fatal(err)
	}
	rt.Probe(ctx)
	rs := httptest.NewServer(rt.Handler())
	t.Cleanup(rs.Close)
	c, err := client.New(rs.URL)
	if err != nil {
		t.Fatal(err)
	}
	var ae *client.APIError
	if _, err := c.Query(ctx, src); !errors.As(err, &ae) || ae.StatusCode != http.StatusBadGateway || !strings.Contains(ae.Message, "bad magic") {
		t.Fatalf("gather over a JSON-speaking shard: %v, want 502 naming the bad magic", err)
	}

	// Two shards that both hold <directed>, both asked for it.
	rt2, err := New([][]string{{startShard(t, full).URL}, {startShard(t, full).URL}})
	if err != nil {
		t.Fatal(err)
	}
	rt2.Probe(ctx)
	_, err = rt2.gather(ctx, map[int][]string{0: {"directed"}, 1: {"directed", "genre"}}, src)
	var se *server.Error
	if !errors.As(err, &se) || se.Status != http.StatusBadGateway || !strings.Contains(se.Msg, "two parts") {
		t.Fatalf("gather of one predicate from two shards: %v, want 502 naming two parts", err)
	}
}

// TestFailedBranchCancelsSiblings: a branch whose shard fails ends the
// query at once. Its sibling, pushed down to a shard that answers only
// when its request ends, is cancelled rather than waited for, and that
// shard sees the cancellation. The failing shard answers 503 (draining)
// only once the slow request has arrived, so the order is fixed.
func TestFailedBranchCancelsSiblings(t *testing.T) {
	preds := []string{"directed", "worked_with", "genre", "population", "born_in", "awarded"}
	var slowPred, deadPred string
	for _, p := range preds[1:] {
		if cluster.ShardOf(p, 2) != cluster.ShardOf(preds[0], 2) {
			slowPred, deadPred = preds[0], p
			break
		}
	}
	arrived, ended := make(chan struct{}), make(chan struct{})
	ready := func(w http.ResponseWriter, r *http.Request) bool {
		if r.URL.Path != "/readyz" {
			return false
		}
		io.WriteString(w, `{"status":"ready","epoch":0}`)
		return true
	}
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if ready(w, r) {
			return
		}
		io.Copy(io.Discard, r.Body) // a server notices a client leaving only once the body is read
		close(arrived)
		select {
		case <-r.Context().Done():
			close(ended)
		case <-time.After(30 * time.Second):
		}
	}))
	defer slow.Close()
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if ready(w, r) {
			return
		}
		select {
		case <-arrived:
		case <-time.After(5 * time.Second):
		}
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, `{"error":"draining"}`)
	}))
	defer dead.Close()

	endpoints := make([][]string, 2)
	endpoints[cluster.ShardOf(slowPred, 2)] = []string{slow.URL}
	endpoints[cluster.ShardOf(deadPred, 2)] = []string{dead.URL}
	rt, err := New(endpoints)
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

	start := time.Now()
	_, err = c.Query(context.Background(), fmt.Sprintf(`SELECT * WHERE { { ?a <%s> ?b . } UNION { ?c <%s> ?d . } }`, slowPred, deadPred))
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusBadGateway || !strings.Contains(ae.Message, "draining") {
		t.Fatalf("routed query over a draining shard: %v, want 502 carrying its reason", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("the router answered after %v: it waited for the slow sibling", took)
	}
	select {
	case <-ended:
	case <-time.After(5 * time.Second):
		t.Fatal("the slow shard never saw its request end")
	}
}

// TestMayMeet pins the static collision test the merge dedups by: rows
// of two branches can be equal only if each one's mandatory variables
// are columns of the other.
func TestMayMeet(t *testing.T) {
	for _, tc := range []struct {
		src  string
		want []bool
	}{
		// Disjoint schemas (U0–U3).
		{`{ ?a <p> ?b . } UNION { ?c <q> ?d . }`, []bool{false, false}},
		// The same schema (U5, U7).
		{`{ ?a <p> ?b . ?b <q> ?c . } UNION { ?a <r> ?b . ?b <q> ?c . }`, []bool{true, true}},
		// Shared variables, but a mandatory one missing on the other side (U4, U6).
		{`{ ?a <p> ?b . ?b <q> ?c . } UNION { ?a <p> ?b . ?a <r> ?d . }`, []bool{false, false}},
		// A row of the first branch without its OPTIONAL ?c can equal one of the second.
		{`{ ?a <p> ?b . OPTIONAL { ?b <q> ?c . } } UNION { ?a <r> ?b . }`, []bool{true, true}},
		{`{ ?a <p> ?b . OPTIONAL { ?b <q> ?c . } } UNION { ?a <r> ?c . }`, []bool{false, false}},
		// Zero-width rows are all equal.
		{`{ <x> <p> <y> . } UNION { <x> <q> <y> . }`, []bool{true, true}},
		// Only the first and the last of three.
		{`{ ?a <p> ?b . } UNION { ?c <q> ?d . } UNION { ?b <r> ?a . }`, []bool{true, false, true}},
	} {
		q, err := dualsim.ParseQuery("SELECT * WHERE { " + tc.src + " }")
		if err != nil {
			t.Fatal(err)
		}
		if got := mayMeet(topBranches(q.Expr)); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: mayMeet = %v, want %v", tc.src, got, tc.want)
		}
	}
}

// genreVariant is Fig. 1(a) with every film's genre replaced by genre,
// plus one film more of that genre: <genre> lives on shard 0 of 2,
// <directed> on shard 1, so only shard 0's slice differs per variant.
func genreVariant(genre string) []dualsim.Triple {
	var out []dualsim.Triple
	for _, tr := range queries.Fig1aTriples() {
		if tr.P == "genre" {
			tr = dualsim.T(tr.S.Value, "genre", genre)
		}
		out = append(out, tr)
	}
	return append(out, dualsim.T("Mortdecai", "genre", genre))
}

// shardOfTriples is shard i of 2 of a store built from ts.
func shardOfTriples(t *testing.T, ts []dualsim.Triple, i int) *dualsim.Store {
	t.Helper()
	full, err := dualsim.FromTriples(ts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := cluster.ShardStore(full, cluster.ShardSpec{Index: i, N: 2})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// movable is a replica's session source that the test moves to another
// session, as a re-bootstrap does.
type movable struct{ db atomic.Pointer[dualsim.DB] }

func (m *movable) DB() *dualsim.DB { return m.db.Load() }
func (m *movable) Ready() error    { return nil }

// TestGatherValidatorIdentity: a held gather is reused only while the
// session that served each slice still serves it at the same epoch. A
// URL whose daemon is replaced by one holding different triples at the
// same epoch 0 answers under a new validator, and so does a replica
// daemon whose session a re-bootstrap replaced; either way the next
// gather answers from the new data.
func TestGatherValidatorIdentity(t *testing.T) {
	ctx := context.Background()
	const src = `SELECT * WHERE { ?d <directed> ?m . ?m <genre> ?g . }` // shard 1 and shard 0 of 2
	var h atomic.Pointer[server.Server]
	serve := func(genre string) (*server.Server, *movable) {
		db, err := dualsim.Open(shardOfTriples(t, genreVariant(genre), 0))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		m := &movable{}
		m.db.Store(db)
		srv, err := server.NewReplica(m)
		if err != nil {
			t.Fatal(err)
		}
		return srv, m
	}
	action, _ := serve("Action")
	h.Store(action)
	swappable := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.Load().ServeHTTP(w, r)
	}))
	t.Cleanup(swappable.Close)
	shard1 := startShard(t, shardOfTriples(t, genreVariant("Action"), 1)).URL
	rt, err := New([][]string{{swappable.URL}, {shard1}})
	if err != nil {
		t.Fatal(err)
	}
	rt.Probe(ctx)
	rs := httptest.NewServer(rt.Handler())
	t.Cleanup(rs.Close)

	var extra []dualsim.Triple // applied to shard 1
	check := func(genre string, reuses int64) {
		t.Helper()
		full, err := dualsim.FromTriples(append(genreVariant(genre), extra...))
		if err != nil {
			t.Fatal(err)
		}
		got, want := queryVia(t, rs.URL, src), queryVia(t, startShard(t, full).URL, src)
		if fmt.Sprint(canonRows(got.Rows)) != fmt.Sprint(canonRows(want.Rows)) || !strings.Contains(fmt.Sprint(canonRows(got.Rows)), genre) {
			t.Fatalf("genre %s: router %v, single node %v", genre, canonRows(got.Rows), canonRows(want.Rows))
		}
		if got.Epoch != uint64(len(extra)) || rt.reuses.Value() != reuses {
			t.Fatalf("genre %s: epoch %d, %d reuses; want %d and %d", genre, got.Epoch, rt.reuses.Value(), len(extra), reuses)
		}
	}
	check("Action", 0)
	check("Action", 1)

	// Another daemon behind the same URL, at the same epoch.
	srv, comedy := serve("Comedy")
	h.Store(srv)
	check("Comedy", 1)
	check("Comedy", 2)

	// The same daemon serving another session at the same epoch, as after
	// a replica's re-bootstrap.
	sc, err := client.New(swappable.URL)
	if err != nil {
		t.Fatal(err)
	}
	before, err := sc.Export(ctx, []string{"genre"})
	if err != nil {
		t.Fatal(err)
	}
	db2, err := dualsim.OpenAt(shardOfTriples(t, genreVariant("Drama"), 0), comedy.DB().Epoch())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db2.Close() })
	comedy.db.Store(db2)
	after, err := sc.Export(ctx, []string{"genre"}, before.ETag)
	if err != nil {
		t.Fatal(err)
	}
	if after.NotModified || after.ETag == before.ETag || after.Epoch != before.Epoch {
		t.Fatalf("export across a change of session: %+v, then %+v; want a new validator at the same epoch", before, after)
	}
	check("Drama", 2)
	check("Drama", 3)

	// The first daemon again, still at epoch 0, while shard 1 moves on:
	// its 304 names the Action slice among the three held for shard 0,
	// and the new union is assembled over that one.
	h.Store(action)
	extra = []dualsim.Triple{dualsim.T("N._Roeg", "directed", "Mortdecai")}
	c1, err := client.New(shard1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.ApplyDelta(ctx, dualsim.Delta{Adds: extra}); err != nil {
		t.Fatal(err)
	}
	check("Action", 3)
	check("Action", 4)
}

// TestGatherMissIsOneRound: a gather after a write to one owning shard
// still sends one export to each shard. The unchanged shard answers 304
// and the new union is assembled over the slice held for it; only the
// changed shard ships its slice.
func TestGatherMissIsOneRound(t *testing.T) {
	ctx := context.Background()
	const src = `SELECT * WHERE { ?d <directed> ?m . ?m <genre> ?g . }` // shard 1 and shard 0 of 2
	var exports [2]atomic.Int64
	var srvs [2]*server.Server
	var urls [][]string
	for i := range srvs {
		db, err := dualsim.Open(shardOfTriples(t, genreVariant("Action"), i))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		if srvs[i], err = server.New(db); err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/export" {
				exports[i].Add(1)
			}
			srvs[i].ServeHTTP(w, r)
		}))
		t.Cleanup(hs.Close)
		urls = append(urls, []string{hs.URL})
	}
	rt, err := New(urls)
	if err != nil {
		t.Fatal(err)
	}
	rt.Probe(ctx)
	rs := httptest.NewServer(rt.Handler())
	t.Cleanup(rs.Close)
	full, err := dualsim.FromTriples(genreVariant("Action"))
	if err != nil {
		t.Fatal(err)
	}
	single := startShard(t, full)
	notModified := func(i int) float64 {
		return srvs[i].Registry().Snapshot()["dualsimd_exports_not_modified_total"]
	}
	step := func(when string, gathers int64, notMod0, notMod1 float64, reuses int64) {
		t.Helper()
		got, want := queryVia(t, rs.URL, src), queryVia(t, single.URL, src)
		if fmt.Sprint(canonRows(got.Rows)) != fmt.Sprint(canonRows(want.Rows)) {
			t.Fatalf("%s: router %v, single node %v", when, canonRows(got.Rows), canonRows(want.Rows))
		}
		if exports[0].Load() != gathers || exports[1].Load() != gathers {
			t.Fatalf("%s: %d and %d exports after %d gathers; want one per shard and gather", when, exports[0].Load(), exports[1].Load(), gathers)
		}
		if notModified(0) != notMod0 || notModified(1) != notMod1 || rt.reuses.Value() != reuses {
			t.Fatalf("%s: 304s %v and %v, %d reuses; want %v, %v and %d", when, notModified(0), notModified(1), rt.reuses.Value(), notMod0, notMod1, reuses)
		}
	}
	step("first", 1, 0, 0, 0)
	step("repeat", 2, 1, 1, 1)
	directed := rt.held.held[0].parts[1] // shard 1 holds <directed>

	d := dualsim.Delta{Adds: []dualsim.Triple{dualsim.T("Mortdecai", "genre", "Comedy")}} // shard 0 only
	for _, url := range []string{rs.URL, single.URL} {
		c, err := client.New(url)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.ApplyDelta(ctx, d); err != nil {
			t.Fatal(err)
		}
	}
	step("after the apply", 3, 1, 2, 1)
	if rt.held.held[0].parts[1] != directed {
		t.Fatal("the union after the apply was not assembled over the held slice of the unchanged shard")
	}
	step("after the apply, repeated", 4, 2, 3, 2)
}

// TestGatherReplicaRoundRobin: shard 0 of a 2-shard gather has a primary
// and a live replica, and reads alternate between them. Each answers
// under its own validator, so the router holds one gather per endpoint:
// after one miss on each, every gather is a reuse, both endpoints answer
// 304, and the answers stay the single node's, across an apply too.
func TestGatherReplicaRoundRobin(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const src = `SELECT * WHERE { ?d <directed> ?m . ?m <genre> ?g . }` // shard 1 and shard 0 of 2
	pdb, err := dualsim.Open(shardOfTriples(t, genreVariant("Action"), 0), dualsim.WithDataDir(t.TempDir()))
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
	f, err := cluster.Follow(primary.URL)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	followed := make(chan error, 1)
	go func() { followed <- f.Run(ctx) }()
	defer func() { cancel(); <-followed }()
	rsrv, err := server.NewReplica(f)
	if err != nil {
		t.Fatal(err)
	}
	replica := httptest.NewServer(rsrv)
	defer replica.Close()

	rt, err := New([][]string{{primary.URL, replica.URL}, {startShard(t, shardOfTriples(t, genreVariant("Action"), 1)).URL}})
	if err != nil {
		t.Fatal(err)
	}
	rt.Probe(ctx)
	rs := httptest.NewServer(rt.Handler())
	defer rs.Close()
	full, err := dualsim.FromTriples(genreVariant("Action"))
	if err != nil {
		t.Fatal(err)
	}
	single := startShard(t, full)
	same := func() {
		t.Helper()
		got, want := queryVia(t, rs.URL, src), queryVia(t, single.URL, src)
		if fmt.Sprint(canonRows(got.Rows)) != fmt.Sprint(canonRows(want.Rows)) {
			t.Fatalf("router %v, single node %v", canonRows(got.Rows), canonRows(want.Rows))
		}
	}
	notModified := func(s *server.Server) float64 {
		return s.Registry().Snapshot()["dualsimd_exports_not_modified_total"]
	}

	same()
	same()
	warm := rt.reuses.Value()
	const reads = 6
	for range reads {
		same()
	}
	if got := rt.reuses.Value() - warm; got != reads {
		t.Fatalf("%d of %d gathers after warm-up reused a held session", got, reads)
	}
	if notModified(psrv) == 0 || notModified(rsrv) == 0 {
		t.Fatalf("304s: primary %v, replica %v; want both > 0", notModified(psrv), notModified(rsrv))
	}

	// An apply moves shard 0 on the primary, then on the replica.
	d := dualsim.Delta{Adds: []dualsim.Triple{dualsim.T("Mortdecai", "genre", "Comedy")}}
	rc, err := client.New(rs.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rc.ApplyDelta(ctx, d); err != nil {
		t.Fatal(err)
	}
	sc, err := client.New(single.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.ApplyDelta(ctx, d); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); f.Stats().Epoch != pdb.Epoch(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at epoch %d, primary at %d", f.Stats().Epoch, pdb.Epoch())
		}
	}
	rt.Probe(ctx)
	for range reads {
		same()
	}
}

// TestGatherConcurrent: gathers of two texts run from several goroutines
// at once while a writer flips one triple in and out through the router.
// Each answer is the single node's answer with or without that triple —
// never a mix, never a held gather of another text or state.
func TestGatherConcurrent(t *testing.T) {
	ctx := context.Background()
	rt, rs, single := startCluster(t, 2)
	texts := []string{
		`SELECT * WHERE { ?d <directed> ?m . ?m <genre> ?g . }`,
		`SELECT * WHERE { ?d <directed> ?m . OPTIONAL { ?m <genre> ?g . } }`,
	}
	flip := dualsim.Delta{Adds: []dualsim.Triple{dualsim.T("Mortdecai", "genre", "Comedy")}}
	sc, err := client.New(single.URL)
	if err != nil {
		t.Fatal(err)
	}
	answers := func() []string {
		out := make([]string, len(texts))
		for i, src := range texts {
			out[i] = fmt.Sprint(canonRows(queryVia(t, single.URL, src).Rows))
		}
		return out
	}
	without := answers()
	if _, err := sc.ApplyDelta(ctx, flip); err != nil {
		t.Fatal(err)
	}
	with := answers()

	rc, err := client.New(rs.URL)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	wrote := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				wrote <- nil
				return
			default:
			}
			d := flip
			if i%2 == 1 {
				d = dualsim.Delta{Dels: flip.Adds}
			}
			if _, err := rc.ApplyDelta(ctx, d); err != nil {
				wrote <- err
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 30 {
				k := (g + i) % len(texts)
				res, err := rc.Query(ctx, texts[k])
				if err != nil {
					t.Error(err)
					return
				}
				if got := fmt.Sprint(canonRows(res.Rows)); got != with[k] && got != without[k] {
					t.Errorf("%s: %s, want %s or %s", texts[k], got, with[k], without[k])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	if rt.gathers.Value() != 120 {
		t.Fatalf("%d gathers, want 120", rt.gathers.Value())
	}
	t.Logf("%d of the gathers reused a held session", rt.reuses.Value())
}

// TestGatherCacheBounds: the cache keeps at most heldGathers entries,
// most recently used first, replaces an entry of the same slices instead
// of holding it twice, and its triple count is the sum over what it
// holds.
func TestGatherCacheBounds(t *testing.T) {
	key := keyOf(map[int][]string{0: {"genre"}, 1: {"directed"}})
	entry := func(tag string, ts ...dualsim.Triple) *heldGather {
		st, err := dualsim.FromTriples(ts)
		if err != nil {
			t.Fatal(err)
		}
		db, err := dualsim.Open(st)
		if err != nil {
			t.Fatal(err)
		}
		return &heldGather{key: key, tags: []string{tag, `"b-0"`}, parts: []*dualsim.Store{st, st}, db: db}
	}
	var c gatherCache
	check := func(n int) {
		t.Helper()
		sum := 0
		for _, h := range c.held {
			sum += h.triples()
		}
		if len(c.held) != n || c.triples != sum {
			t.Fatalf("%d held, %d triples counted; want %d held, %d triples", len(c.held), c.triples, n, sum)
		}
	}
	for i := range heldGathers + 4 {
		ts := []dualsim.Triple{dualsim.T("a", "genre", "b")}
		for j := range i {
			ts = append(ts, dualsim.T("a", "genre", fmt.Sprint(j)))
		}
		c.add(entry(fmt.Sprintf(`"a-%d"`, i), ts...))
	}
	check(heldGathers)
	if got := c.held[heldGathers-1].tags[0]; got != `"a-4"` {
		t.Fatalf("least recently used entry %s, want \"a-4\"", got)
	}
	if c.lookup(key, []string{`"a-4"`, `"b-0"`}) == nil || c.held[0].tags[0] != `"a-4"` {
		t.Fatal("a lookup did not find the entry or did not mark it most recently used")
	}
	c.add(entry(`"a-4"`, dualsim.T("x", "genre", "y")))
	check(heldGathers)
	if c.held[0].triples() != 1 {
		t.Fatal("an entry of the same slices was not replaced")
	}
	if parts := c.parts(key); len(parts[0]) != heldGathers || len(parts[1]) != 1 {
		t.Fatalf("held parts per slice %d and %d, want %d distinct and 1", len(parts[0]), len(parts[1]), heldGathers)
	}
}

// TestRouterCloseEndsBranches: a query that ends before its branches do
// — a client that reads one row of a two-branch stream and leaves, or a
// request-level limit the first branch fills — ends them. Both shards
// answer their header and two rows, then hold the stream open until
// their request ends; each must see it end, and no goroutine the query
// started may outlive it.
func TestRouterCloseEndsBranches(t *testing.T) {
	preds := []string{"directed", "worked_with", "genre", "population", "born_in", "awarded"}
	var p0, p1 string
	for _, p := range preds[1:] {
		if cluster.ShardOf(p, 2) != cluster.ShardOf(preds[0], 2) {
			p0, p1 = preds[0], p
			break
		}
	}
	src := fmt.Sprintf(`SELECT * WHERE { { ?a <%s> ?b . } UNION { ?a <%s> ?b . } }`, p0, p1)
	for _, leave := range []string{"client closes", "limit"} {
		t.Run(leave, func(t *testing.T) {
			ended := []chan struct{}{make(chan struct{}), make(chan struct{})}
			holding := func(ended chan struct{}) string {
				s := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if r.URL.Path == "/readyz" {
						io.WriteString(w, `{"status":"ready","epoch":0}`)
						return
					}
					io.Copy(io.Discard, r.Body)
					w.Header().Set("Content-Type", wire.ContentTypeNDJSON)
					io.WriteString(w, `{"kind":"header","vars":["a","b"],"epoch":0}`+"\n"+
						`"<x>"`+"\n"+`"<y>"`+"\n"+`"<z>"`+"\n"+"[0,1]\n[0,2]\n")
					w.(http.Flusher).Flush()
					select {
					case <-r.Context().Done():
						close(ended)
					case <-time.After(30 * time.Second):
					}
				}))
				t.Cleanup(s.Close)
				return s.URL
			}
			endpoints := make([][]string, 2)
			endpoints[cluster.ShardOf(p0, 2)] = []string{holding(ended[0])}
			endpoints[cluster.ShardOf(p1, 2)] = []string{holding(ended[1])}
			rt, err := New(endpoints)
			if err != nil {
				t.Fatal(err)
			}
			rt.Probe(context.Background())
			rs := httptest.NewServer(rt.Handler())
			t.Cleanup(rs.Close)
			c, err := client.New(rs.URL, client.WithRetries(0))
			if err != nil {
				t.Fatal(err)
			}

			before := runtime.NumGoroutine()
			var opts []client.QueryOpt
			if leave == "limit" {
				opts = append(opts, client.Limit(1))
			}
			st, err := c.QueryStream(context.Background(), src, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if !st.Next() {
				t.Fatalf("no first row: %v", st.Err())
			}
			if leave == "limit" && (st.Next() || st.Err() != nil || !st.Truncated()) {
				t.Fatalf("limit 1: a second row, or no truncated trailer: %v", st.Err())
			}
			st.Close()
			for i, e := range ended {
				select {
				case <-e:
				case <-time.After(5 * time.Second):
					t.Fatalf("the shard of branch %d never saw its request end", i)
				}
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<20)
					t.Fatalf("%d goroutines, %d before the query:\n%s", runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

// TestLimitLeavesNoLinePastItsRows: an answer cut by the request's
// limit proves there was more with a peeked row, whose lines must not
// go out. Every row of the store is two terms no other row has, so the
// peeked row writes term lines before its row line. A daemon's answer,
// a relayed branch and a meeting branch each end in exactly limit row
// lines, the last of them right before the trailer, which says
// truncated: no term line follows it, and no other row does.
func TestLimitLeavesNoLinePastItsRows(t *testing.T) {
	const rows, limit = 5, 3
	var triples []dualsim.Triple
	for i := range rows {
		s, o := fmt.Sprintf("s%d", i), fmt.Sprintf("o%d", i)
		triples = append(triples, dualsim.T(s, "p", o), dualsim.T(s, "q", o))
	}
	st, err := dualsim.FromTriples(triples)
	if err != nil {
		t.Fatal(err)
	}
	shard := startShard(t, st)
	rt, err := New([][]string{{shard.URL}})
	if err != nil {
		t.Fatal(err)
	}
	rt.Probe(context.Background())
	routed := httptest.NewServer(rt.Handler())
	t.Cleanup(routed.Close)
	for _, tc := range []struct {
		name, url, src string
		path           *metrics.Counter // the router's rows of the path the answer takes
	}{
		{"daemon", shard.URL, `SELECT * WHERE { ?s <p> ?o . }`, nil},
		{"relayed branch", routed.URL, `SELECT * WHERE { ?s <p> ?o . }`, rt.relayed},
		{"meeting branch", routed.URL, `SELECT * WHERE { { ?s <p> ?o . } UNION { ?s <q> ?o . } }`, rt.meeting},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before int64
			if tc.path != nil {
				before = tc.path.Value()
			}
			body, err := json.Marshal(wire.QueryRequest{Query: tc.src, Limit: limit})
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(tc.url+"/v1/query", wire.ContentTypeJSON, bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			answer, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d, %v", resp.StatusCode, err)
			}
			lines := strings.Split(strings.TrimSuffix(string(answer), "\n"), "\n")
			var trailer wire.Event
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &trailer); err != nil || trailer.Kind != wire.EventStats || !trailer.Truncated || trailer.Rows != limit {
				t.Fatalf("the answer ends %q (%v), want a truncated trailer of %d rows:\n%s", lines[len(lines)-1], err, limit, answer)
			}
			n := 0
			for _, line := range lines {
				if strings.HasPrefix(line, "[") {
					n++
				}
			}
			if last := lines[len(lines)-2]; n != limit || !strings.HasPrefix(last, "[") {
				t.Fatalf("%d row lines, and %q before the trailer; want %d, the last right before it:\n%s", n, last, limit, answer)
			}
			if tc.path != nil && tc.path.Value() == before {
				t.Fatalf("the answer did not take the %s path", tc.name)
			}
		})
	}
}

// cannedRouter routes to one shard that answers every query with body.
func cannedRouter(t *testing.T, body []byte) *Router {
	t.Helper()
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			io.WriteString(w, `{"status":"ready","epoch":0}`)
			return
		}
		w.Header().Set("Content-Type", wire.ContentTypeNDJSON)
		w.Write(body)
	}))
	t.Cleanup(shard.Close)
	rt, err := New([][]string{{shard.URL}})
	if err != nil {
		t.Fatal(err)
	}
	rt.Probe(context.Background())
	return rt
}

// distinctRows is a shard's answer of rows rows over ?s and ?o whose
// terms are all new IRIs, each starting with prefix.
func distinctRows(rows int, prefix string) []byte {
	body := []byte(`{"kind":"header","vars":["s","o"],"epoch":0}` + "\n")
	for i := range rows {
		body = fmt.Appendf(body, "\"<%ss%d>\"\n\"<%so%d>\"\n[%d,%d]\n", prefix, i, prefix, i, 2*i, 2*i+1)
	}
	return fmt.Appendf(body, `{"kind":"stats","epoch":0,"rows":%d}`+"\n", rows)
}

// answerBytes posts src to rt's HTTP answer runs times, after one post
// that fills the pools and the connections, reads each answer to its
// end into one buffer, and returns the median of the bytes each answer
// allocated. The process counts what every goroutine allocates, so a
// reading may carry work that is not the answer's, and an answer of
// two relayed branches allocates 8 MB or 0.2 MB as its second branch's
// read-ahead outgrows maxIdleLines or not, depending on how far it got
// before the cursor took it over; the median of single answers stands
// on what most answers cost. Each answer must end in its trailer with
// rows rows.
func answerBytes(t *testing.T, rt *Router, src string, rows, runs int) float64 {
	t.Helper()
	rs := httptest.NewServer(rt.Handler())
	defer rs.Close()
	body := fmt.Sprintf(`{"query":%q}`, src)
	trailer := fmt.Sprintf(`"rows":%d`, rows)
	var answer bytes.Buffer
	post := func() {
		resp, err := http.Post(rs.URL+"/v1/query", wire.ContentTypeJSON, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		answer.Reset()
		_, err = answer.ReadFrom(resp.Body)
		resp.Body.Close()
		last := answer.Bytes()[bytes.LastIndexByte(bytes.TrimSuffix(answer.Bytes(), []byte{'\n'}), '\n')+1:]
		if err != nil || !bytes.Contains(last, []byte(`"kind":"stats"`)) || !bytes.Contains(last, []byte(trailer)) {
			t.Fatalf("%s: the answer ends %q (%v), want a trailer of %d rows", src, last, err, rows)
		}
	}
	post()
	runtime.GC()
	per := make([]uint64, runs)
	for i := range per {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		post()
		runtime.ReadMemStats(&after)
		per[i] = after.TotalAlloc - before.TotalAlloc
	}
	slices.Sort(per)
	return float64(per[runs/2])
}

// TestRelayAllocsPerRow pins what a row of a relayed branch costs the
// whole hop, measured on the router's HTTP answer: the shard stream's
// lines are copied into the response as they came, each row line
// rewritten in place, so a row whose terms are all new allocates
// nothing of its own. It reads about 1.2 bytes a row, the per-answer
// cost (the request, the shard stream, the response) spread over the
// rows; the bound of 4 leaves twice as much again. Read back through a term table,
// as the router read every pushed-down row before, it cost about 130.
func TestRelayAllocsPerRow(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const rows = 20_000
	rt := cannedRouter(t, distinctRows(rows, ""))
	perRow := answerBytes(t, rt, `SELECT * WHERE { ?s <p> ?o . }`, rows, 5) / rows
	t.Logf("%.2f bytes allocated per relayed row", perRow)
	if perRow > 4 {
		t.Errorf("relaying costs %.2f bytes per row, want <= 4", perRow)
	}
}

// TestMeetingRowAllocs pins what a row of meeting branches costs the
// router's HTTP answer beyond a relayed row. Both branches read the
// same rows from one shard: over the same variables they meet, so each
// row of the first is kept and its duplicate in the second is found
// and dropped. The difference to one relayed branch of the same rows,
// per kept row, is the keyed path's: the term tables that keep both
// branches' cells, the seen set's cell numbers, hash and slot, the
// response memo that numbers the cells, the second branch's read-ahead
// lines, and the garbage of their doubling, at the benchmark's IRI
// length. One relayed branch reads ahead nothing, so its reading does
// not depend on how far a read-ahead got. It reads about 896 bytes; the
// bound of 1 000 leaves 12 %, less than the 140 bytes a kept row cost
// more when the seen set keyed a map by the rendered cells.
func TestMeetingRowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const rows = 20_000
	rt := cannedRouter(t, distinctRows(rows, "http://www.Department3.University0.edu/"))
	meet := answerBytes(t, rt, `SELECT * WHERE { { ?s <p> ?o . } UNION { ?s <q> ?o . } }`, rows, 7)
	one := answerBytes(t, rt, `SELECT * WHERE { ?s <p> ?o . }`, rows, 7)
	perRow := (meet - one) / rows
	t.Logf("%.1f bytes allocated per kept meeting row (%.1f per relayed row)", perRow, one/rows)
	if perRow > 1000 {
		t.Errorf("a kept meeting row costs %.1f bytes, want <= 1000", perRow)
	}
}

// cellNames renders cell c as its c-th name, the way a branch renders
// the cells it numbers.
type cellNames struct{ names []string }

func (c *cellNames) appendCell(dst []byte, k uint32) []byte { return append(dst, c.names[k]...) }

// TestSeenSetExactUnderCollisions: the seen set finds a row exactly
// when a kept row renders to the same bytes, even when every hash
// collides. Two branches number overlapping values differently, values
// are prefixes of one another, and some cells are unbound; rows of the
// first are kept unless found, rows of the second are only looked up,
// as fresh does. A set that trusted a matching hash would find every
// row after the first under the constant hash.
func TestSeenSetExactUnderCollisions(t *testing.T) {
	values := []string{`"<a>"`, `"<ab>"`, `"<b>"`, `"<c>"`, `"<bc>"`, `"<abc>"`, `"\"a\""`}
	first, second := &cellNames{values}, &cellNames{slices.Clone(values)}
	slices.Reverse(second.names)
	u := dualsim.Unbound
	for _, tc := range []struct {
		name string
		hash func(maphash.Seed, []byte) uint64
	}{
		{"maphash", maphash.Bytes},
		{"constant", func(maphash.Seed, []byte) uint64 { return 7 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(1, 2))
			row := func() []uint32 {
				out := make([]uint32, 3)
				for i := range out {
					if out[i] = uint32(rng.IntN(len(values) + 1)); out[i] == uint32(len(values)) {
						out[i] = u
					}
				}
				return out
			}
			s := newSeenSet(3)
			s.hash = tc.hash
			kept := map[string]bool{}
			var cells []byte
			for i := range 400 {
				src, r := first, row()
				if i >= 250 {
					src = second
				}
				cells = appendRow(cells[:0], src, r)
				h, found := s.find(cells)
				if want := kept[string(cells)]; found != want {
					t.Fatalf("row %d %v of branch %d: found %v, want %v", i, r, i/250, found, want)
				}
				if !found && i < 250 {
					s.add(h, src, r)
					kept[string(cells)] = true
				}
			}
			if len(s.hashes) != len(kept) || len(kept) < 100 {
				t.Fatalf("the set holds %d rows, the reference %d", len(s.hashes), len(kept))
			}
		})
	}
}
