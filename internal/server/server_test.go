package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dualsim"
	"dualsim/internal/persist"
	"dualsim/internal/queries"
	"dualsim/internal/wire"
)

const queryX1 = `SELECT * WHERE { ?d <directed> ?m . ?d <worked_with> ?c . }`

func newTestServer(t *testing.T, opts ...Option) (*Server, *httptest.Server, *dualsim.DB) {
	t.Helper()
	st, err := dualsim.FromTriples(queries.Fig1aTriples())
	if err != nil {
		t.Fatal(err)
	}
	db, err := dualsim.Open(st, dualsim.WithPlanCache(16))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(db, opts...)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(func() {
		hs.Close()
		db.Close()
	})
	return srv, hs, db
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, wire.ContentTypeJSON, bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var out T
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return out
}

func TestQueryBuffered(t *testing.T) {
	_, hs, _ := newTestServer(t)
	resp := postJSON(t, hs.URL+"/v1/query", wire.QueryRequest{Query: queryX1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Dualsim-Epoch"); got != "0" {
		t.Fatalf("epoch header = %q, want 0", got)
	}
	out := decode[wire.QueryResponse](t, resp)
	if len(out.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(out.Rows))
	}
	if out.Epoch != 0 || out.Stats == nil || out.Stats.Epoch != 0 {
		t.Fatalf("epoch tagging inconsistent: %+v", out)
	}
	if len(out.Vars) != 3 {
		t.Fatalf("vars = %v", out.Vars)
	}
	for _, row := range out.Rows {
		for _, v := range row {
			if v == nil || !strings.HasPrefix(*v, "<") {
				t.Fatalf("binding not decoded: %v", row)
			}
		}
	}
}

// readStream decodes an NDJSON response into its events.
func readStream(t *testing.T, body io.Reader) (header wire.Event, rows []wire.Event, stats wire.Event) {
	t.Helper()
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	first := true
	for sc.Scan() {
		var ev wire.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch ev.Kind {
		case wire.EventHeader:
			if !first {
				t.Fatal("header event not first")
			}
			header = ev
		case wire.EventRow:
			rows = append(rows, ev)
		case wire.EventStats:
			stats = ev
		case wire.EventError:
			t.Fatalf("stream error: %s", ev.Error)
		default:
			t.Fatalf("unknown event kind %q", ev.Kind)
		}
		first = false
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if header.Kind == "" || stats.Kind == "" {
		t.Fatalf("stream missing header/stats (header %q, stats %q)", header.Kind, stats.Kind)
	}
	return header, rows, stats
}

func TestQueryStreamed(t *testing.T) {
	_, hs, _ := newTestServer(t)
	resp := postJSON(t, hs.URL+"/v1/query?stream=1", wire.QueryRequest{Query: queryX1})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != wire.ContentTypeNDJSON {
		t.Fatalf("content type = %q", ct)
	}
	header, rows, stats := readStream(t, resp.Body)
	if len(header.Vars) != 3 || len(rows) != 2 {
		t.Fatalf("header vars %v, %d rows", header.Vars, len(rows))
	}
	if stats.Rows != 2 || stats.Stats == nil {
		t.Fatalf("stats trailer: %+v", stats)
	}
	if header.Epoch != stats.Stats.Epoch {
		t.Fatalf("epoch mismatch: header %d, stats %d", header.Epoch, stats.Stats.Epoch)
	}
}

func TestQueryLimitTruncates(t *testing.T) {
	_, hs, _ := newTestServer(t)
	resp := postJSON(t, hs.URL+"/v1/query", wire.QueryRequest{Query: queryX1, Limit: 1})
	out := decode[wire.QueryResponse](t, resp)
	if len(out.Rows) != 1 || !out.Truncated {
		t.Fatalf("limit: %d rows, truncated %v", len(out.Rows), out.Truncated)
	}
}

func TestQueryErrors(t *testing.T) {
	_, hs, _ := newTestServer(t)
	for _, tc := range []struct {
		name string
		body string
		want int
	}{
		{"malformed json", `{`, http.StatusBadRequest},
		{"unknown field", `{"nope": 1}`, http.StatusBadRequest},
		{"empty query", `{"query": "  "}`, http.StatusBadRequest},
		{"parse error", `{"query": "SELECT broken"}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(hs.URL+"/v1/query", wire.ContentTypeJSON, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		out := decode[wire.ErrorResponse](t, resp)
		if resp.StatusCode != tc.want || out.Error == "" {
			t.Fatalf("%s: status %d (want %d), error %q", tc.name, resp.StatusCode, tc.want, out.Error)
		}
	}
	// Wrong method.
	resp, err := http.Get(hs.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/query = %d", resp.StatusCode)
	}
}

func TestBatch(t *testing.T) {
	_, hs, _ := newTestServer(t)
	resp := postJSON(t, hs.URL+"/v1/batch", wire.BatchRequest{
		Queries: []string{queryX1, "SELECT broken", queryX1},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	out := decode[wire.BatchResponse](t, resp)
	if len(out.Results) != 3 {
		t.Fatalf("results = %d", len(out.Results))
	}
	if len(out.Results[0].Rows) != 2 || out.Results[1].Error == "" || len(out.Results[2].Rows) != 2 {
		t.Fatalf("batch items: %+v", out.Results)
	}
	if out.Stats.Requests != 3 || out.Stats.Failed != 1 || out.Stats.Results != 4 {
		t.Fatalf("batch stats: %+v", out.Stats)
	}
	// The repeated text re-used the plan: one of the two X1 executions
	// hit the cache.
	if out.Stats.CacheHits < 1 {
		t.Fatalf("batch stats report no cache hits: %+v", out.Stats)
	}

	// A member with a limit stops pulling at limit+1 rows, as /v1/query
	// does: the peek that proves truncation is the last row computed.
	var adds []wire.Triple
	for i := 0; i < 12; i++ {
		adds = append(adds, wire.Triple{S: "lim:s" + strconv.Itoa(i), P: "lim:edge", O: "lim:o" + strconv.Itoa(i)})
	}
	postJSON(t, hs.URL+"/v1/apply", wire.ApplyRequest{Adds: adds}).Body.Close()
	out = decode[wire.BatchResponse](t, postJSON(t, hs.URL+"/v1/batch", wire.BatchRequest{
		Queries: []string{`SELECT * WHERE { ?s <lim:edge> ?o . }`}, Limit: 1,
	}))
	if m := out.Results[0]; m.Error != "" || len(m.Rows) != 1 || !m.Truncated || m.Stats.Results > 2 {
		t.Fatalf("limit 1 over 12 rows: %d rows, truncated %v, error %q, stats %+v; want 1 row, truncated, stats.results ≤ 2",
			len(m.Rows), m.Truncated, m.Error, m.Stats)
	}
}

// TestBatchMembers: members answer by position, a blank member fails in
// its own slot, repeated texts plan once, and a closed session fails the
// whole batch with 503.
func TestBatchMembers(t *testing.T) {
	_, hs, db := newTestServer(t)
	resp := postJSON(t, hs.URL+"/v1/batch", wire.BatchRequest{
		Queries: []string{queryX1, queries.QueryX2, queryX1, "  "},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	out := decode[wire.BatchResponse](t, resp)
	for i, want := range []int{2, 4, 2} {
		if m := out.Results[i]; m.Error != "" || len(m.Rows) != want || m.Stats.Results != want {
			t.Fatalf("member %d: %d rows, error %q, stats %+v; want %d rows", i, len(m.Rows), m.Error, m.Stats, want)
		}
	}
	if got := out.Results[3].Error; got != "empty query" {
		t.Fatalf("blank member: error %q, want \"empty query\"", got)
	}
	if out.Stats.Requests != 4 || out.Stats.Failed != 1 || out.Stats.Results != 8 {
		t.Fatalf("batch stats: %+v", out.Stats)
	}
	if got := db.PlanBuilds(); got != 2 {
		t.Fatalf("PlanBuilds = %d after [X1, X2, X1], want 2", got)
	}

	db.Close()
	resp = postJSON(t, hs.URL+"/v1/batch", wire.BatchRequest{Queries: []string{queryX1, queries.QueryX2}})
	if e := decode[wire.ErrorResponse](t, resp); resp.StatusCode != http.StatusServiceUnavailable || e.Error == "" {
		t.Fatalf("batch on a closed session: %d %+v, want 503", resp.StatusCode, e)
	}
}

// TestBatchDeadline: a timeoutMs that expires mid-batch fails the whole
// batch with 504, and promptly — the members still to run never start.
// Every member is a text of its own (a distinct variable name), so each
// pays for its own plan and solve: a prepared query that runs again
// reuses both, and a batch of repeats would cost less than its first.
func TestBatchDeadline(t *testing.T) {
	st, err := dualsim.FromTriples(dualsim.GenerateLUBM(24, 42))
	if err != nil {
		t.Fatal(err)
	}
	db, err := dualsim.Open(st, dualsim.WithPlanCache(4))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv, err := New(db)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()

	member := func(name string) string {
		return `SELECT * WHERE {
		?publication <rdf:type> <ub:Publication> .
		?publication <ub:publicationAuthor> ?student .
		?student <ub:memberOf> ?` + name + ` . }`
	}
	batch := func(tag string, n int, timeoutMs int64) (*http.Response, time.Duration) {
		srcs := make([]string, n)
		for i := range srcs {
			srcs[i] = member(fmt.Sprintf("%s%d", tag, i))
		}
		start := time.Now()
		resp := postJSON(t, hs.URL+"/v1/batch", wire.BatchRequest{Queries: srcs, TimeoutMs: timeoutMs})
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp, time.Since(start)
	}
	// The cost of one member, to place the deadline mid-batch: the first
	// call warms the server, the second times a text of its own.
	batch("warm", 1, 0)
	_, one := batch("one", 1, 0)

	// Every worker runs eight members in a row: the batch needs at least
	// eight times one member's time, four times its deadline.
	n := 8 * runtime.GOMAXPROCS(0)
	resp, elapsed := batch("department", n, max(1, 2*one.Milliseconds()))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("batch of %d past its deadline: status %d, want 504 (one member: %v)", n, resp.StatusCode, one)
	}
	if limit := time.Duration(n)*one + time.Second; elapsed > limit {
		t.Fatalf("cancelled batch ran %v (one member: %v) — not aborted", elapsed, one)
	}
}

// TestBatchConcurrentCallers (-race): several clients post batches through
// one session and its shared plan cache at once; every member answers by
// position and each distinct text is planned once.
func TestBatchConcurrentCallers(t *testing.T) {
	_, hs, db := newTestServer(t)
	srcs := []string{queryX1, queries.QueryX2, `SELECT * WHERE { ?director <awarded> ?prize . }`, queryX1}
	body, err := json.Marshal(wire.BatchRequest{Queries: srcs})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 6)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(hs.URL+"/v1/batch", wire.ContentTypeJSON, bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var out wire.BatchResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK || len(out.Results) != len(srcs) {
				errs <- fmt.Errorf("concurrent batch: status %d, %d results", resp.StatusCode, len(out.Results))
				return
			}
			for i, want := range []int{2, 4} {
				if m := out.Results[i]; m.Error != "" || len(m.Rows) != want {
					errs <- fmt.Errorf("concurrent batch member %d: %d rows, error %q; want %d rows", i, len(m.Rows), m.Error, want)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if builds := db.PlanBuilds(); builds != 3 {
		t.Fatalf("PlanBuilds = %d across concurrent batches, want 3", builds)
	}
}

func TestApplyCompactSnapshot(t *testing.T) {
	_, hs, db := newTestServer(t)
	resp := postJSON(t, hs.URL+"/v1/apply", wire.ApplyRequest{
		Adds: []wire.Triple{
			{S: "J._McTiernan", P: "directed", O: "Die_Hard"},
			{S: "J._McTiernan", P: "worked_with", O: "S._de_Souza"},
			{S: "Newark", P: "motto", Lit: "Liberty and Prosperity", IsLit: true},
		},
	})
	out := decode[wire.ApplyResponse](t, resp)
	if out.Stats.Epoch != 1 || out.Stats.Added != 3 {
		t.Fatalf("apply stats: %+v", out.Stats)
	}
	if db.Epoch() != 1 {
		t.Fatalf("session epoch = %d", db.Epoch())
	}

	// The new snapshot serves the extra match.
	qr := decode[wire.QueryResponse](t, postJSON(t, hs.URL+"/v1/query", wire.QueryRequest{Query: queryX1}))
	if len(qr.Rows) != 3 || qr.Epoch != 1 {
		t.Fatalf("post-apply query: %d rows at epoch %d", len(qr.Rows), qr.Epoch)
	}

	// An empty delta is a no-op: same epoch, no invalidation.
	out = decode[wire.ApplyResponse](t, postJSON(t, hs.URL+"/v1/apply", wire.ApplyRequest{}))
	if !out.Stats.NoOp || out.Stats.Epoch != 1 {
		t.Fatalf("empty apply: %+v", out.Stats)
	}

	cr := decode[wire.ApplyResponse](t, postJSON(t, hs.URL+"/v1/compact", nil))
	if cr.Stats.Epoch != 2 || !cr.Stats.Compacted {
		t.Fatalf("compact stats: %+v", cr.Stats)
	}

	resp, err := http.Get(hs.URL + "/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	snap := decode[wire.SnapshotResponse](t, resp)
	if snap.Epoch != 2 || snap.Triples != 23 || snap.OverlaySize != 0 || snap.Compactions != 1 {
		t.Fatalf("snapshot: %+v", snap)
	}
}

// TestSnapshotNeverTearsUnderApplies: /v1/snapshot reads the epoch and
// the lineage counters from one published value. Every apply adds one
// fresh triple at threshold T, so epoch e has compacted e/T times and
// carries e%T changes; a response mixing two epochs breaks the identity.
func TestSnapshotNeverTearsUnderApplies(t *testing.T) {
	const (
		threshold = 4
		writers   = 3
		applies   = 25
		readers   = 3
	)
	st, err := dualsim.FromTriples(queries.Fig1aTriples())
	if err != nil {
		t.Fatal(err)
	}
	db, err := dualsim.Open(st, dualsim.WithCompactionThreshold(threshold))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv, err := New(db)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()

	errc := make(chan error, writers+readers)
	var writersWG, readersWG sync.WaitGroup
	var done atomic.Bool
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func() {
			defer writersWG.Done()
			for k := 0; k < applies; k++ {
				body, _ := json.Marshal(wire.ApplyRequest{Adds: []wire.Triple{{S: fmt.Sprintf("w%d", w), P: "wrote", O: fmt.Sprintf("n%d", k)}}})
				resp, err := http.Post(hs.URL+"/v1/apply", wire.ContentTypeJSON, bytes.NewReader(body))
				if err == nil {
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						err = fmt.Errorf("apply: status %d", resp.StatusCode)
					}
				}
				if err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		readersWG.Add(1)
		go func() {
			defer readersWG.Done()
			for !done.Load() {
				resp, err := http.Get(hs.URL + "/v1/snapshot")
				if err != nil {
					errc <- err
					return
				}
				var snap wire.SnapshotResponse
				err = json.NewDecoder(resp.Body).Decode(&snap)
				resp.Body.Close()
				if err == nil && (snap.Compactions != int(snap.Epoch/threshold) || snap.OverlaySize != int(snap.Epoch%threshold)) {
					err = fmt.Errorf("torn snapshot: epoch %d, %d compactions, overlay %d", snap.Epoch, snap.Compactions, snap.OverlaySize)
				}
				if err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	writersWG.Wait()
	done.Store(true)
	readersWG.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if e := db.Epoch(); e != writers*applies {
		t.Fatalf("epoch %d after %d applies", e, writers*applies)
	}
}

func TestApplyMalformedTriple(t *testing.T) {
	_, hs, db := newTestServer(t)
	for name, bad := range map[string]wire.Triple{
		"empty subject":    {S: "", P: "directed", O: "X"},
		"ambiguous object": {S: "a", P: "p", O: "iri", Lit: "lit"},
	} {
		resp := postJSON(t, hs.URL+"/v1/apply", wire.ApplyRequest{Adds: []wire.Triple{bad}})
		out := decode[wire.ErrorResponse](t, resp)
		if resp.StatusCode != http.StatusBadRequest || out.Error == "" {
			t.Fatalf("%s: status %d, error %q", name, resp.StatusCode, out.Error)
		}
	}
	if db.Epoch() != 0 {
		t.Fatal("failed apply advanced the epoch")
	}
}

func TestHealthAndDrain(t *testing.T) {
	srv, hs, _ := newTestServer(t)
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		h := decode[wire.HealthResponse](t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %+v", path, resp.StatusCode, h)
		}
	}
	srv.StartDrain()
	// Liveness is unaffected by draining — the process still serves.
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h := decode[wire.HealthResponse](t, resp)
	if resp.StatusCode != http.StatusOK || h.Status != "draining" {
		t.Fatalf("draining healthz: %d %+v", resp.StatusCode, h)
	}
	// Readiness flips to 503 so routers/load balancers move on first.
	resp, err = http.Get(hs.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	h = decode[wire.HealthResponse](t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable || h.Status != "draining" {
		t.Fatalf("draining readyz: %d %+v", resp.StatusCode, h)
	}
	// Draining only flips readiness: in-flight/new work is still served
	// until the HTTP server itself shuts down.
	qr := postJSON(t, hs.URL+"/v1/query", wire.QueryRequest{Query: queryX1})
	if qr.StatusCode != http.StatusOK {
		t.Fatalf("query while draining = %d", qr.StatusCode)
	}
	qr.Body.Close()
}

func TestReadinessHookAndReadOnly(t *testing.T) {
	notReady := errors.New("bootstrap in progress")
	var gate atomic.Pointer[error]
	gate.Store(&notReady)
	_, hs, _ := newTestServer(t,
		WithReadiness(func() error {
			if e := gate.Load(); e != nil && *e != nil {
				return *e
			}
			return nil
		}),
		WithReadOnly(),
	)

	resp, err := http.Get(hs.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	h := decode[wire.HealthResponse](t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable || h.Status != "notready" || h.Reason == "" {
		t.Fatalf("readyz while not ready: %d %+v", resp.StatusCode, h)
	}
	var ready error
	gate.Store(&ready)
	resp, err = http.Get(hs.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	h = decode[wire.HealthResponse](t, resp)
	if resp.StatusCode != http.StatusOK || h.Status != "ready" {
		t.Fatalf("readyz once ready: %d %+v", resp.StatusCode, h)
	}

	// Read-only mode: every mutating endpoint refuses with 403, reads
	// still work.
	for _, path := range []string{"/v1/apply", "/v1/compact", "/v1/checkpoint"} {
		resp := postJSON(t, hs.URL+path, wire.ApplyRequest{})
		out := decode[wire.ErrorResponse](t, resp)
		if resp.StatusCode != http.StatusForbidden || out.Error == "" {
			t.Fatalf("%s on read-only server: %d %+v", path, resp.StatusCode, out)
		}
	}
	qr := postJSON(t, hs.URL+"/v1/query", wire.QueryRequest{Query: queryX1})
	if qr.StatusCode != http.StatusOK {
		t.Fatalf("query on read-only server = %d", qr.StatusCode)
	}
	qr.Body.Close()
}

func TestMetricsEndpoint(t *testing.T) {
	_, hs, _ := newTestServer(t)
	postJSON(t, hs.URL+"/v1/query", wire.QueryRequest{Query: queryX1}).Body.Close()
	postJSON(t, hs.URL+"/v1/query", wire.QueryRequest{Query: queryX1}).Body.Close()
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(buf)
	for _, want := range []string{
		"dualsimd_requests_total 3", // 2 queries + this scrape... no: scrape is the 3rd request
		"dualsimd_queries_total 2",
		"dualsimd_epoch 0",
		"dualsimd_plan_cache_hits 1",
		"dualsimd_plan_cache_hit_rate 0.5",
		"dualsimd_rows_total 4",
		"dualsimd_shed_total 0",
	} {
		if !strings.Contains(body, want+"\n") {
			t.Fatalf("metrics miss %q:\n%s", want, body)
		}
	}
}

// TestOverloadSheds deterministically fills every slot and the queue,
// then asserts the next request is shed with 429 + Retry-After.
func TestOverloadSheds(t *testing.T) {
	srv, hs, _ := newTestServer(t, WithMaxInFlight(1), WithQueueDepth(1))
	// Occupy the single execution slot and the single queue spot
	// directly on the admission controller (white box — the HTTP path
	// cannot hold a slot open deterministically with fast queries).
	release, _, err := srv.admit.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	queued := make(chan struct{})
	qctx, qcancel := context.WithCancel(context.Background())
	defer qcancel()
	go func() {
		close(queued)
		rel, _, err := srv.admit.acquire(qctx)
		if err == nil {
			rel()
		}
	}()
	<-queued
	// Wait until the queued goroutine is counted.
	for i := 0; srv.admit.Queued() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if srv.admit.Queued() == 0 {
		t.Fatal("queue never filled")
	}

	resp := postJSON(t, hs.URL+"/v1/query", wire.QueryRequest{Query: queryX1})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want 1", ra)
	}
	out := decode[wire.ErrorResponse](t, resp)
	if out.RetryAfterMs != 1000 {
		t.Fatalf("retryAfterMs = %d", out.RetryAfterMs)
	}
	if srv.Registry().Snapshot()["dualsimd_shed_total"] != 1 {
		t.Fatal("shed counter did not move")
	}
}

func TestQueryDeadline(t *testing.T) {
	_, hs, _ := newTestServer(t)
	// A 1ns-equivalent deadline: timeoutMs must be > 0 to take effect,
	// so use 1ms against a query that includes an artificial pause via
	// admission? The engine is too fast on fig1a — instead rely on the
	// context being expired before execution starts.
	resp := postJSON(t, hs.URL+"/v1/query", wire.QueryRequest{Query: queryX1, TimeoutMs: 1})
	// Either the query won the race (200) or the deadline fired (504);
	// both are legal, but a 504 must carry the error shape.
	switch resp.StatusCode {
	case http.StatusOK:
		resp.Body.Close()
	case http.StatusGatewayTimeout:
		out := decode[wire.ErrorResponse](t, resp)
		if !strings.Contains(out.Error, "deadline") {
			t.Fatalf("504 error = %q", out.Error)
		}
	default:
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

// TestConcurrentQueriesAndApplies is the end-to-end acceptance test: N
// concurrent clients issue buffered and streamed queries, and one more
// batches, while a writer interleaves Apply/Compact. Every response (every
// batch member) must be internally epoch-consistent (header epoch ==
// stats epoch, bindings decodable) and
// every status must be 200 or 429 — never a hang, tear or race (run
// under -race).
func TestConcurrentQueriesAndApplies(t *testing.T) {
	_, hs, db := newTestServer(t, WithMaxInFlight(4), WithQueueDepth(2))
	const (
		clients   = 8
		perClient = 25
		applies   = 40
	)
	var wg sync.WaitGroup
	errc := make(chan error, clients+2)

	// Writer: live deltas on a dedicated predicate, with a compaction in
	// the middle (which renumbers node ids — the decode-against-pinned-
	// snapshot property under test).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < applies; i++ {
			if i == applies/2 {
				resp := postJSON(t, hs.URL+"/v1/compact", nil)
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				continue
			}
			resp := postJSON(t, hs.URL+"/v1/apply", wire.ApplyRequest{
				Adds: []wire.Triple{{S: "upd:s" + strconv.Itoa(i), P: "upd:edge", O: "upd:o" + strconv.Itoa(i)}},
			})
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
				errc <- fmt.Errorf("apply %d: status %d", i, resp.StatusCode)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()

	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				if (c+i)%2 == 0 {
					resp := postJSON(t, hs.URL+"/v1/query", wire.QueryRequest{Query: queryX1})
					switch resp.StatusCode {
					case http.StatusOK:
						out := decode[wire.QueryResponse](t, resp)
						if out.Stats == nil || out.Epoch != out.Stats.Epoch {
							errc <- fmt.Errorf("buffered: inconsistent epochs %+v", out)
						}
						if len(out.Rows) < 2 {
							errc <- fmt.Errorf("buffered: %d rows", len(out.Rows))
						}
					case http.StatusTooManyRequests:
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					default:
						errc <- fmt.Errorf("buffered: status %d", resp.StatusCode)
						resp.Body.Close()
					}
				} else {
					resp := postJSON(t, hs.URL+"/v1/query?stream=1", wire.QueryRequest{Query: queryX1})
					switch resp.StatusCode {
					case http.StatusOK:
						header, rows, stats := readStream(t, resp.Body)
						resp.Body.Close()
						if header.Epoch != stats.Stats.Epoch {
							errc <- fmt.Errorf("stream: header epoch %d != stats epoch %d", header.Epoch, stats.Stats.Epoch)
						}
						if len(rows) < 2 {
							errc <- fmt.Errorf("stream: %d rows", len(rows))
						}
						for _, ev := range rows {
							for _, v := range ev.Values {
								if v == nil || !strings.HasPrefix(*v, "<") {
									errc <- fmt.Errorf("stream: undecodable binding %v at epoch %d", ev.Values, header.Epoch)
								}
							}
						}
					case http.StatusTooManyRequests:
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					default:
						errc <- fmt.Errorf("stream: status %d", resp.StatusCode)
						resp.Body.Close()
					}
				}
			}
		}(c)
	}

	// Batch client: every member answers from one epoch of its own, even
	// when an apply or the compaction lands mid-batch.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < perClient; i++ {
			resp := postJSON(t, hs.URL+"/v1/batch", wire.BatchRequest{Queries: []string{queryX1, queryX1, queryX1, queryX1}})
			if resp.StatusCode == http.StatusTooManyRequests {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				continue
			}
			if resp.StatusCode != http.StatusOK {
				resp.Body.Close()
				errc <- fmt.Errorf("batch: status %d", resp.StatusCode)
				return
			}
			for j, m := range decode[wire.BatchResponse](t, resp).Results {
				if m.Error != "" || m.Stats == nil || m.Epoch != m.Stats.Epoch || len(m.Rows) < 2 {
					errc <- fmt.Errorf("batch member %d: inconsistent %+v", j, m)
					return
				}
				for _, row := range m.Rows {
					for _, v := range row {
						if v == nil || !strings.HasPrefix(*v, "<") {
							errc <- fmt.Errorf("batch member %d: undecodable binding %v at epoch %d", j, row, m.Epoch)
							return
						}
					}
				}
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if db.Epoch() == 0 {
		t.Fatal("writer never advanced the epoch")
	}
}

func TestOptionValidation(t *testing.T) {
	st, err := dualsim.FromTriples(queries.Fig1aTriples())
	if err != nil {
		t.Fatal(err)
	}
	db, err := dualsim.Open(st)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, opt := range []Option{
		WithMaxInFlight(0), WithQueueDepth(-1),
		WithDefaultTimeout(-time.Second), WithRegistry(nil),
	} {
		if _, err := New(db, opt); err == nil {
			t.Fatal("invalid option accepted")
		}
	}
	if _, err := New(nil); err == nil {
		t.Fatal("nil session accepted")
	}
}

// TestCheckpointEndpoint covers /v1/checkpoint on a durable session:
// applies accumulate WAL records, the endpoint rolls them into a
// snapshot, and the persistence gauges move on /metrics.
func TestCheckpointEndpoint(t *testing.T) {
	dir := t.TempDir()
	st, err := dualsim.FromTriples(queries.Fig1aTriples())
	if err != nil {
		t.Fatal(err)
	}
	db, err := dualsim.Open(st, dualsim.WithPlanCache(16), dualsim.WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(db)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(func() {
		hs.Close()
		db.Close()
	})

	resp := postJSON(t, hs.URL+"/v1/apply", wire.ApplyRequest{Adds: []wire.Triple{
		{S: "ck:s", P: "ck:p", O: "ck:o"},
	}})
	var ar wire.ApplyResponse
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ar.Stats.WALBytes <= 0 {
		t.Fatalf("apply did not report WAL bytes: %+v", ar.Stats)
	}

	resp = postJSON(t, hs.URL+"/v1/checkpoint", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Dualsim-Epoch"); got != "1" {
		t.Fatalf("checkpoint epoch header %q, want 1", got)
	}
	var cr wire.CheckpointResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if cr.Stats.Epoch != 1 || cr.Stats.SnapshotBytes <= 0 || cr.Stats.WALReclaimed <= 0 {
		t.Fatalf("checkpoint stats: %+v", cr.Stats)
	}

	mresp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"dualsimd_durable 1",
		"dualsimd_wal_records 0", // just checkpointed
		"dualsimd_last_checkpoint_epoch 1",
		"dualsimd_checkpoint_requests_total 1",
	} {
		if !strings.Contains(string(page), want) {
			t.Errorf("metrics page misses %q", want)
		}
	}
}

// TestCheckpointNotDurableIs409: a server without a data dir cannot
// checkpoint, and says so with a non-retryable status.
func TestCheckpointNotDurableIs409(t *testing.T) {
	_, hs, _ := newTestServer(t)
	resp := postJSON(t, hs.URL+"/v1/checkpoint", nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("checkpoint on non-durable server: status %d, want 409", resp.StatusCode)
	}
}

// walEvents reads a full NDJSON /v1/wal response body.
func walEvents(t *testing.T, resp *http.Response) []wire.WALEvent {
	t.Helper()
	defer resp.Body.Close()
	var evs []wire.WALEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		var ev wire.WALEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("WAL event line %q: %v", sc.Text(), err)
		}
		evs = append(evs, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return evs
}

// TestWALReplicationEndpoints drives the primary half of replication:
// tail after writes, bootstrap snapshot, and the 410 epoch-gap answer
// once a checkpoint truncates the requested range.
func TestWALReplicationEndpoints(t *testing.T) {
	st, err := dualsim.FromTriples(queries.Fig1aTriples())
	if err != nil {
		t.Fatal(err)
	}
	db, err := dualsim.Open(st, dualsim.WithDataDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(db)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(func() {
		hs.Close()
		db.Close()
	})
	ctx := context.Background()
	if _, err := db.Apply(ctx, dualsim.Delta{Adds: []dualsim.Triple{dualsim.T("n1", "directed", "m1")}}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Apply(ctx, dualsim.Delta{Adds: []dualsim.Triple{dualsim.T("n2", "directed", "m2")}}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(hs.URL + "/v1/wal?fromEpoch=0")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wal tail status = %d", resp.StatusCode)
	}
	evs := walEvents(t, resp)
	if len(evs) != 4 {
		t.Fatalf("tail events = %+v, want header+2 applies+end", evs)
	}
	if evs[0].Kind != wire.WALHeader || evs[0].Epoch != 2 || evs[0].CheckpointEpoch != 0 {
		t.Fatalf("header = %+v", evs[0])
	}
	for i, wantEpoch := range []uint64{1, 2} {
		ev := evs[1+i]
		if ev.Kind != wire.WALApply || ev.Epoch != wantEpoch || len(ev.Adds) != 1 {
			t.Fatalf("apply[%d] = %+v", i, ev)
		}
	}
	if evs[3].Kind != wire.WALEnd || evs[3].Epoch != 2 {
		t.Fatalf("end = %+v", evs[3])
	}

	// A caught-up replica's poll: no records, just header+end.
	resp, err = http.Get(hs.URL + "/v1/wal?fromEpoch=2&waitMs=10")
	if err != nil {
		t.Fatal(err)
	}
	if evs = walEvents(t, resp); len(evs) != 2 || evs[0].Kind != wire.WALHeader || evs[1].Kind != wire.WALEnd {
		t.Fatalf("caught-up tail = %+v", evs)
	}

	// Bootstrap snapshot: the streamed container decodes to the live
	// state at the advertised epoch.
	resp, err = http.Get(hs.URL + "/v1/wal/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wal snapshot status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Dualsim-Epoch"); got != "2" {
		t.Fatalf("snapshot epoch header = %q", got)
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	bst, epoch, err := persist.DecodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 || bst.NumTriples() != db.Store().NumTriples() {
		t.Fatalf("bootstrap decode: epoch %d, %d triples; want 2, %d", epoch, bst.NumTriples(), db.Store().NumTriples())
	}

	// Checkpoint truncates the WAL; a tail from before the checkpoint
	// epoch must 410 and point at the snapshot to bootstrap from.
	if _, err := db.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(hs.URL + "/v1/wal?fromEpoch=0")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("gap tail status = %d, want 410", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Dualsim-Checkpoint-Epoch"); got != "2" {
		t.Fatalf("gap checkpoint-epoch header = %q, want 2", got)
	}
	resp.Body.Close()
}

// TestWALTailNotDurableIs409: without a data dir there is no WAL to
// stream, and the status is non-retryable.
func TestWALTailNotDurableIs409(t *testing.T) {
	_, hs, _ := newTestServer(t)
	resp, err := http.Get(hs.URL + "/v1/wal?fromEpoch=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("wal tail on non-durable server: %d, want 409", resp.StatusCode)
	}
}

// TestExportEndpoint: the router's gather path gets exactly the
// requested predicate slices as one snapshot container, pinned to one
// epoch (header and container agree); a repeated predicate exports
// once, unknown predicates export as nothing, and no predicate is 400.
func TestExportEndpoint(t *testing.T) {
	_, hs, db := newTestServer(t)
	if _, err := db.Apply(context.Background(), dualsim.Delta{Adds: []dualsim.Triple{dualsim.T("n1", "directed", "m1")}}); err != nil {
		t.Fatal(err)
	}
	export := func(query string) (*dualsim.Store, uint64) {
		t.Helper()
		resp, err := http.Get(hs.URL + "/v1/export?" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("export %s: status %d", query, resp.StatusCode)
		}
		blob, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		st, epoch, err := persist.DecodeSnapshot(blob)
		if err != nil {
			t.Fatalf("export %s: %v", query, err)
		}
		if h := resp.Header.Get("X-Dualsim-Epoch"); h != strconv.FormatUint(epoch, 10) {
			t.Fatalf("export %s: header epoch %q, container epoch %d", query, h, epoch)
		}
		return st, epoch
	}

	full := db.Snapshot().Store()
	want := map[string]bool{}
	for _, tr := range full.Triples() {
		if tr.P == "directed" || tr.P == "genre" {
			want[tr.String()] = true
		}
	}
	st, epoch := export("pred=directed&pred=no_such_predicate&pred=genre&pred=directed")
	if epoch != 1 {
		t.Fatalf("export epoch %d, want 1", epoch)
	}
	if st.NumPreds() != 2 || st.NumTriples() != len(want) {
		t.Fatalf("export: %d predicates, %d triples; want 2, %d", st.NumPreds(), st.NumTriples(), len(want))
	}
	used := map[dualsim.Term]bool{}
	for _, tr := range st.Triples() {
		if !want[tr.String()] {
			t.Fatalf("export holds %s, not a directed/genre triple of the store", tr)
		}
		used[tr.S], used[tr.O] = true, true
	}
	if st.NumNodes() != len(used) {
		t.Fatalf("export carries %d terms, its triples use %d", st.NumNodes(), len(used))
	}

	if st, _ := export("pred=no_such_predicate"); st.NumPreds() != 0 || st.NumNodes() != 0 {
		t.Fatalf("unknown predicate exported %d predicates, %d terms", st.NumPreds(), st.NumNodes())
	}

	// No predicates asked for → a routing bug on the caller side; 400.
	resp, err := http.Get(hs.URL + "/v1/export")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty export status = %d, want 400", resp.StatusCode)
	}
}

// TestSwapDB: the replica re-bootstrap path swaps the served session
// atomically; later requests answer from the new session and epoch.
func TestSwapDB(t *testing.T) {
	srv, hs, _ := newTestServer(t)
	st, err := dualsim.FromTriples(queries.Fig1aTriples())
	if err != nil {
		t.Fatal(err)
	}
	db2, err := dualsim.OpenAt(st, 7)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db2.Close() })
	srv.SwapDB(db2)
	resp, err := http.Get(hs.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	h := decode[wire.HealthResponse](t, resp)
	if h.Epoch != 7 {
		t.Fatalf("epoch after swap = %d, want 7", h.Epoch)
	}
	qr := postJSON(t, hs.URL+"/v1/query", wire.QueryRequest{Query: queryX1})
	if got := qr.Header.Get("X-Dualsim-Epoch"); got != "7" {
		t.Fatalf("query epoch after swap = %q, want 7", got)
	}
	qr.Body.Close()
}
