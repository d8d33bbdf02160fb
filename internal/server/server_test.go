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
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dualsim"
	"dualsim/client"
	"dualsim/internal/persist"
	"dualsim/internal/queries"
	"dualsim/internal/wire"
)

const queryX1 = `SELECT * WHERE { ?d <directed> ?m . ?d <worked_with> ?c . }`

func newTestServer(t testing.TB, opts ...Option) (*Server, *httptest.Server, *dualsim.DB) {
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

// source is a Replica whose session and readiness the test sets.
type source struct {
	db    atomic.Pointer[dualsim.DB]
	ready atomic.Pointer[error]
}

func (s *source) DB() *dualsim.DB { return s.db.Load() }

func (s *source) Ready() error {
	if e := s.ready.Load(); e != nil {
		return *e
	}
	return nil
}

// newTestReplica serves src through NewReplica.
func newTestReplica(t *testing.T, src *source) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := NewReplica(src)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	return srv, hs
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

// drain reads a reply to its end and closes it. A query's statement,
// metrics and slow-log entry are recorded just before its trailer goes
// out, so they are in once the stream has been read; a test that closes
// the body after the first row could read them before the handler has
// recorded the query, or after it recorded a cancelled one.
func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
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

// readStream decodes an NDJSON response into its header, its rows
// (the term table resolved) and its stats trailer.
func readStream(t *testing.T, body io.Reader) (header wire.Event, rows [][]*string, stats wire.Event) {
	t.Helper()
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	first := true
	var tab wire.TermTable
	for sc.Scan() {
		kind, err := tab.Read(sc.Bytes(), len(header.Vars), true)
		if err != nil || first && kind != wire.LineEvent {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		first = false
		switch kind {
		case wire.LineTerm:
			continue
		case wire.LineRow:
			rows = append(rows, tab.AppendRow(nil))
			continue
		}
		var ev wire.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch ev.Kind {
		case wire.EventHeader:
			if header.Kind != "" {
				t.Fatal("second header event")
			}
			header = ev
		case wire.EventStats:
			stats = ev
		case wire.EventError:
			t.Fatalf("stream error: %s", ev.Error)
		default:
			t.Fatalf("unknown event kind %q", ev.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if header.Kind == "" || stats.Kind == "" {
		t.Fatalf("stream missing header/stats (header %q, stats %q)", header.Kind, stats.Kind)
	}
	return header, rows, stats
}

// decodeStream reads a streamed 200 whole, as client.Query does.
func decodeStream(t *testing.T, resp *http.Response) *client.QueryResponse {
	t.Helper()
	defer resp.Body.Close()
	header, rows, stats := readStream(t, resp.Body)
	return &client.QueryResponse{Vars: header.Vars, Rows: rows, Epoch: header.Epoch, Truncated: stats.Truncated, Stats: stats.Stats}
}

func TestQueryStreamed(t *testing.T) {
	_, hs, _ := newTestServer(t)
	resp := postJSON(t, hs.URL+"/v1/query", wire.QueryRequest{Query: queryX1})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != wire.ContentTypeNDJSON {
		t.Fatalf("content type = %q", ct)
	}
	if got := resp.Header.Get("X-Dualsim-Epoch"); got != "0" {
		t.Fatalf("epoch header = %q, want 0", got)
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
	for _, row := range rows {
		for _, v := range row {
			if v == nil || !strings.HasPrefix(*v, "<") {
				t.Fatalf("binding not decoded: %v", row)
			}
		}
	}
}

func TestQueryLimitTruncates(t *testing.T) {
	_, hs, _ := newTestServer(t)
	resp := postJSON(t, hs.URL+"/v1/query", wire.QueryRequest{Query: queryX1, Limit: 1})
	out := decodeStream(t, resp)
	if len(out.Rows) != 1 || !out.Truncated {
		t.Fatalf("limit: %d rows, truncated %v", len(out.Rows), out.Truncated)
	}

	// The pull stops at limit+1 rows: the peek that proves truncation is
	// the last row computed.
	var adds []wire.Triple
	for i := 0; i < 12; i++ {
		adds = append(adds, wire.Triple{S: "lim:s" + strconv.Itoa(i), P: "lim:edge", O: "lim:o" + strconv.Itoa(i)})
	}
	postJSON(t, hs.URL+"/v1/apply", wire.ApplyRequest{Adds: adds}).Body.Close()
	out = decodeStream(t, postJSON(t, hs.URL+"/v1/query", wire.QueryRequest{
		Query: `SELECT * WHERE { ?s <lim:edge> ?o . }`, Limit: 1,
	}))
	if len(out.Rows) != 1 || !out.Truncated || out.Stats.Results > 2 {
		t.Fatalf("limit 1 over 12 rows: %d rows, truncated %v, stats %+v; want 1 row, truncated, stats.results ≤ 2",
			len(out.Rows), out.Truncated, out.Stats)
	}
}

func TestQueryErrors(t *testing.T) {
	_, hs, db := newTestServer(t)
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
	// A closed session answers 503.
	db.Close()
	resp = postJSON(t, hs.URL+"/v1/query", wire.QueryRequest{Query: queryX1})
	if e := decode[wire.ErrorResponse](t, resp); resp.StatusCode != http.StatusServiceUnavailable || e.Error == "" {
		t.Fatalf("query on a closed session: %d %+v, want 503", resp.StatusCode, e)
	}
}

// TestQueryConcurrentCallers (-race): several clients post their queries
// through one session and its shared plan cache at once, each query a
// request of its own (their encoders share the core's free list of
// buffers); every query answers in full and each distinct text is
// planned once.
func TestQueryConcurrentCallers(t *testing.T) {
	_, hs, db := newTestServer(t)
	srcs := []string{queryX1, queries.QueryX2, `SELECT * WHERE { ?director <awarded> ?prize . }`, queryX1}
	want := []int{2, 4, 3, 2}
	var wg sync.WaitGroup
	errs := make(chan error, 6*len(srcs))
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			url := hs.URL + "/v1/query"
			for i, src := range srcs {
				body, err := json.Marshal(wire.QueryRequest{Query: src})
				if err != nil {
					errs <- err
					return
				}
				resp, err := http.Post(url, wire.ContentTypeJSON, bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				_, rows, _ := readStream(t, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || len(rows) != want[i] {
					errs <- fmt.Errorf("concurrent query %d: status %d, %d rows; want %d rows", i, resp.StatusCode, len(rows), want[i])
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
		t.Fatalf("PlanBuilds = %d across concurrent callers, want 3", builds)
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
	qr := decodeStream(t, postJSON(t, hs.URL+"/v1/query", wire.QueryRequest{Query: queryX1}))
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

// TestReplicaReadinessAndReadOnly: a replica's /readyz answers its
// source's Ready (503 "notready" with the source's reason, then 200),
// draining still wins over a ready source, every mutating endpoint
// answers 403, and reads are served.
func TestReplicaReadinessAndReadOnly(t *testing.T) {
	_, _, db := newTestServer(t)
	src := &source{}
	src.db.Store(db)
	notReady := errors.New("bootstrap in progress")
	src.ready.Store(&notReady)
	srv, hs := newTestReplica(t, src)

	readyz := func(wantCode int, wantStatus string) {
		t.Helper()
		resp, err := http.Get(hs.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		h := decode[wire.HealthResponse](t, resp)
		if resp.StatusCode != wantCode || h.Status != wantStatus || (wantCode != http.StatusOK) == (h.Reason == "") {
			t.Fatalf("readyz: %d %+v, want %d %q", resp.StatusCode, h, wantCode, wantStatus)
		}
	}
	readyz(http.StatusServiceUnavailable, "notready")
	src.ready.Store(nil)
	readyz(http.StatusOK, "ready")

	for _, path := range []string{"/v1/apply", "/v1/compact", "/v1/checkpoint"} {
		resp := postJSON(t, hs.URL+path, wire.ApplyRequest{})
		out := decode[wire.ErrorResponse](t, resp)
		if resp.StatusCode != http.StatusForbidden || out.Error == "" {
			t.Fatalf("%s on a replica: %d %+v", path, resp.StatusCode, out)
		}
	}
	qr := postJSON(t, hs.URL+"/v1/query", wire.QueryRequest{Query: queryX1})
	if qr.StatusCode != http.StatusOK {
		t.Fatalf("query on a replica = %d", qr.StatusCode)
	}
	qr.Body.Close()

	srv.StartDrain()
	readyz(http.StatusServiceUnavailable, "draining")
}

func TestMetricsEndpoint(t *testing.T) {
	_, hs, _ := newTestServer(t)
	drain(postJSON(t, hs.URL+"/v1/query", wire.QueryRequest{Query: queryX1}))
	drain(postJSON(t, hs.URL+"/v1/query", wire.QueryRequest{Query: queryX1}))
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
// concurrent clients issue queries while a writer
// interleaves Apply/Compact. Every response must be internally
// epoch-consistent (header epoch == stats epoch, bindings decodable) and
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
	errc := make(chan error, clients+1)

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

	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range perClient {
				resp := postJSON(t, hs.URL+"/v1/query", wire.QueryRequest{Query: queryX1})
				switch resp.StatusCode {
				case http.StatusOK:
					header, rows, stats := readStream(t, resp.Body)
					resp.Body.Close()
					if header.Epoch != stats.Stats.Epoch {
						errc <- fmt.Errorf("header epoch %d != stats epoch %d", header.Epoch, stats.Stats.Epoch)
					}
					if len(rows) < 2 {
						errc <- fmt.Errorf("%d rows", len(rows))
					}
					for _, row := range rows {
						for _, v := range row {
							if v == nil || !strings.HasPrefix(*v, "<") {
								errc <- fmt.Errorf("undecodable binding %v at epoch %d", row, header.Epoch)
							}
						}
					}
				case http.StatusTooManyRequests:
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				default:
					errc <- fmt.Errorf("status %d", resp.StatusCode)
					resp.Body.Close()
				}
			}
		}()
	}

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
		WithDefaultTimeout(-time.Second),
	} {
		if _, err := New(db, opt); err == nil {
			t.Fatal("invalid option accepted")
		}
	}
	if _, err := New(nil); err == nil {
		t.Fatal("nil session accepted")
	}
	if _, err := NewReplica(&source{}); err == nil {
		t.Fatal("replica without a session accepted")
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

// newDurableServer serves Fig. 1(a) from a session with a data dir:
// the only kind with a WAL to tail.
func newDurableServer(t testing.TB) (*httptest.Server, *dualsim.DB) {
	t.Helper()
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
	return hs, db
}

// walTail checks a 200 /v1/wal answer — a WAL file with Content-Length
// and the primary's epoch and last checkpoint in headers — and reads
// its records with the frame reader recovery uses.
func walTail(t *testing.T, resp *http.Response, epoch, ckpt string) []persist.Record {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wal tail status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("wal tail Content-Type = %q", ct)
	}
	if e, c := resp.Header.Get("X-Dualsim-Epoch"), resp.Header.Get("X-Dualsim-Checkpoint-Epoch"); e != epoch || c != ckpt {
		t.Fatalf("wal tail epoch headers = %q, %q; want %q, %q", e, c, epoch, ckpt)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ContentLength != int64(len(body)) {
		t.Fatalf("wal tail Content-Length = %d for a %d-byte body", resp.ContentLength, len(body))
	}
	recs, goodLen, err := persist.ReadWAL(bytes.NewReader(body))
	if err != nil || goodLen != int64(len(body)) {
		t.Fatalf("wal tail reads %d of %d bytes: %v", goodLen, len(body), err)
	}
	return recs
}

// TestWALReplicationEndpoints drives the primary half of replication:
// tail after writes, bootstrap snapshot, and the 410 epoch-gap answer
// once a checkpoint truncates the requested range.
func TestWALReplicationEndpoints(t *testing.T) {
	hs, db := newDurableServer(t)
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
	recs := walTail(t, resp, "2", "0")
	if len(recs) != 2 {
		t.Fatalf("tail records = %+v, want 2 applies", recs)
	}
	for i, rec := range recs {
		if rec.Kind != persist.RecordApply || rec.Epoch != uint64(i+1) || len(rec.Adds) != 1 || len(rec.Dels) != 0 {
			t.Fatalf("apply[%d] = %+v", i, rec)
		}
	}
	if got := recs[1].Adds[0]; got != dualsim.T("n2", "directed", "m2") {
		t.Fatalf("apply of epoch 2 adds %v", got)
	}

	// A caught-up replica's poll: no records, just the header.
	resp, err = http.Get(hs.URL + "/v1/wal?fromEpoch=2&waitMs=10")
	if err != nil {
		t.Fatal(err)
	}
	if recs = walTail(t, resp, "2", "0"); len(recs) != 0 {
		t.Fatalf("caught-up tail = %+v", recs)
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

// TestWALLongPollDeliversMidPollApply: a caught-up replica parked on
// a long-poll gets the record of an apply that lands while it waits,
// long before the poll window runs out.
func TestWALLongPollDeliversMidPollApply(t *testing.T) {
	hs, db := newDurableServer(t)
	type answer struct {
		resp *http.Response
		err  error
	}
	got := make(chan answer, 1)
	start := time.Now()
	go func() {
		resp, err := http.Get(hs.URL + "/v1/wal?fromEpoch=0&waitMs=20000")
		got <- answer{resp, err}
	}()
	time.Sleep(100 * time.Millisecond) // let the poll park on the idle log
	if _, err := db.Apply(context.Background(), dualsim.Delta{Adds: []dualsim.Triple{dualsim.T("n1", "directed", "m1")}}); err != nil {
		t.Fatal(err)
	}
	a := <-got
	if a.err != nil {
		t.Fatal(a.err)
	}
	recs := walTail(t, a.resp, "1", "0")
	if len(recs) != 1 || recs[0].Epoch != 1 || recs[0].Adds[0] != dualsim.T("n1", "directed", "m1") {
		t.Fatalf("mid-poll tail = %+v, want the apply of epoch 1", recs)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("the apply was delivered after %v, at the end of the poll window", d)
	}
}

// TestWALLongPollEndsOnDrain: a replica's parked long-poll must not hold
// shutdown. http.Server.Shutdown does not cancel request contexts, so
// the poll ends on its own once the core drains, answering the empty
// tail it has; Serve then returns within the grace and runs the final
// hook (a durable primary's checkpoint).
func TestWALLongPollEndsOnDrain(t *testing.T) {
	st, err := dualsim.FromTriples(queries.Fig1aTriples())
	if err != nil {
		t.Fatal(err)
	}
	db, err := dualsim.Open(st, dualsim.WithDataDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv, err := New(db)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	served := make(chan error, 1)
	var final atomic.Bool
	go func() {
		served <- srv.Serve(ctx, Listen{Name: "test", Addr: "127.0.0.1:0", DrainTimeout: time.Second}, io.Discard, ready,
			func() error { final.Store(true); return nil })
	}()
	addr := <-ready

	polled := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/v1/wal?fromEpoch=0&waitMs=60000")
		if err != nil {
			t.Error(err)
		}
		polled <- resp
	}()
	// The poll has reached the core once the request counter moves; it
	// parks on the idle log from there.
	for i := 0; srv.Registry().Snapshot()["dualsimd_requests_total"] == 0; i++ {
		if i == 5000 {
			t.Fatal("the poll never reached the server")
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve after %v: %v, want a clean drain", time.Since(start), err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve still draining after 10s")
	}
	if d := time.Since(start); d >= time.Second {
		t.Fatalf("drain took %v, the whole grace", d)
	}
	if !final.Load() {
		t.Fatal("the final hook did not run")
	}
	if resp := <-polled; resp != nil {
		if recs := walTail(t, resp, "0", "0"); len(recs) != 0 {
			t.Fatalf("drained poll answered %+v, want the empty tail", recs)
		}
	}
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

// TestExportConditional pins the export validator: a 200 carries the
// ETag "<nonce>-<epoch>"; an If-None-Match naming it (alone, or in a
// list, weak or not) gets 304 with no body and the ETag and epoch
// headers, and encodes nothing; after an apply the old validator gets
// the new slice under a new ETag; a malformed If-None-Match is ignored.
// A replica whose source moved to another session at the same epoch
// answers under a new validator.
func TestExportConditional(t *testing.T) {
	srv, hs, db := newTestServer(t)
	base := hs.URL
	export := func(inm ...string) *http.Response {
		t.Helper()
		req, err := http.NewRequest("GET", base+"/v1/export?pred=directed&pred=genre", nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range inm {
			req.Header.Add("If-None-Match", v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	full := func(resp *http.Response, epoch uint64) string {
		t.Helper()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("export: status %d, want 200", resp.StatusCode)
		}
		blob, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if _, got, err := persist.DecodeSnapshot(blob); err != nil || got != epoch {
			t.Fatalf("export body: epoch %d, %v; want epoch %d", got, err, epoch)
		}
		etag := resp.Header.Get("ETag")
		if !strings.HasPrefix(etag, `"`) || !strings.HasSuffix(etag, fmt.Sprintf(`-%d"`, epoch)) {
			t.Fatalf("ETag %q, want \"<nonce>-%d\"", etag, epoch)
		}
		return etag
	}
	unchanged := func(resp *http.Response, etag, epoch string) {
		t.Helper()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
			t.Fatalf("export: status %d with %d body bytes, want 304 and none", resp.StatusCode, len(body))
		}
		if resp.Header.Get("ETag") != etag || resp.Header.Get("X-Dualsim-Epoch") != epoch {
			t.Fatalf("304 headers: ETag %q, epoch %q; want %q, %s", resp.Header.Get("ETag"), resp.Header.Get("X-Dualsim-Epoch"), etag, epoch)
		}
	}
	notModified := func() float64 { return srv.Registry().Snapshot()["dualsimd_exports_not_modified_total"] }

	v0 := full(export(), 0)
	unchanged(export(v0), v0, "0")
	unchanged(export(`"other-0", W/`+v0), v0, "0")
	unchanged(export(`"other-0"`, v0), v0, "0") // one validator per header line
	if n := notModified(); n != 3 {
		t.Fatalf("dualsimd_exports_not_modified_total = %v, want 3", n)
	}
	for _, bad := range []string{`*`, `garbage`, strings.Trim(v0, `"`), v0 + "x", `"` + v0} {
		full(export(bad), 0)
	}

	if _, err := db.Apply(context.Background(), dualsim.Delta{Adds: []dualsim.Triple{dualsim.T("n1", "directed", "m1")}}); err != nil {
		t.Fatal(err)
	}
	v1 := full(export(v0), 1)
	if v1 == v0 {
		t.Fatalf("validator %s did not change across an apply", v1)
	}
	unchanged(export(v0+", "+v1), v1, "1")

	// A replica serving the same session draws its own nonce; once its
	// source moves to another session holding the same store at the
	// same epoch, the validator is the new session's, so the old one no
	// longer matches.
	src := &source{}
	src.db.Store(db)
	_, rhs := newTestReplica(t, src)
	base = rhs.URL
	v1r := full(export(v1), 1)
	if v1r == v1 {
		t.Fatalf("replica and primary share the validator %s", v1)
	}
	unchanged(export(v1r), v1r, "1")
	db2, err := dualsim.OpenAt(db.Store(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db2.Close() })
	src.db.Store(db2)
	if v2 := full(export(v1r), 1); v2 == v1r {
		t.Fatalf("validator %s survived a change of session", v2)
	}
	if n := notModified(); n != 4 {
		t.Fatalf("primary dualsimd_exports_not_modified_total = %v, want 4", n)
	}
}

// TestReplicaSourceMovesUnderLoad: exports race the source moving
// between sessions, each at its own epoch. Every answer must pair a
// session's nonce with that session's epoch, and no nonce may name two
// sessions.
func TestReplicaSourceMovesUnderLoad(t *testing.T) {
	st, err := dualsim.FromTriples(queries.Fig1aTriples())
	if err != nil {
		t.Fatal(err)
	}
	sessions := make([]*dualsim.DB, 16)
	for i := range sessions {
		if sessions[i], err = dualsim.OpenAt(st, uint64(i)); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sessions[i].Close() })
	}
	src := &source{}
	src.db.Store(sessions[0])
	srv, err := NewReplica(src)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	epochOf := map[string]string{} // nonce → the epoch it was served at
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 200 {
				w := httptest.NewRecorder()
				srv.ServeHTTP(w, httptest.NewRequest("GET", "/v1/export?pred=directed", nil))
				nonce, epoch, ok := strings.Cut(strings.Trim(w.Header().Get("ETag"), `"`), "-")
				if !ok || epoch != w.Header().Get("X-Dualsim-Epoch") {
					t.Errorf("ETag %s served at epoch %s", w.Header().Get("ETag"), w.Header().Get("X-Dualsim-Epoch"))
					return
				}
				mu.Lock()
				if prev, seen := epochOf[nonce]; seen && prev != epoch {
					t.Errorf("nonce %s named epochs %s and %s", nonce, prev, epoch)
				}
				epochOf[nonce] = epoch
				mu.Unlock()
			}
		}()
	}
	for i := 1; i < len(sessions); i++ {
		src.db.Store(sessions[i])
		time.Sleep(time.Millisecond)
	}
	wg.Wait()
}

// racingSource is a Replica whose first DB call is overtaken: the call
// reads the source's session, then lets race run, which may move the
// source and resolve it elsewhere, before it returns what it read.
type racingSource struct {
	source
	raced atomic.Bool
	race  func()
}

func (s *racingSource) DB() *dualsim.DB {
	db := s.source.DB()
	if s.raced.CompareAndSwap(false, true) {
		s.race()
	}
	return db
}

// TestReplicaNeverServesSupersededSession: a request that read the
// source's session and lost the swap to a request that installed a
// newer one serves the newer one; it never swaps the older one back in.
func TestReplicaNeverServesSupersededSession(t *testing.T) {
	st, err := dualsim.FromTriples(queries.Fig1aTriples())
	if err != nil {
		t.Fatal(err)
	}
	sessions := make([]*dualsim.DB, 3)
	for i := range sessions {
		if sessions[i], err = dualsim.OpenAt(st, uint64(i)); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sessions[i].Close() })
	}
	src := &racingSource{}
	b := &local{src: src}
	b.cur.Store(newServed(sessions[0]))
	src.db.Store(sessions[1])
	src.race = func() {
		src.db.Store(sessions[2])
		resolved := make(chan *served)
		go func() { resolved <- b.current() }()
		if got := <-resolved; got.db != sessions[2] {
			t.Errorf("the concurrent request served epoch %d, want 2", got.db.Epoch())
		}
	}
	if got := b.current(); got.db != sessions[2] {
		t.Fatalf("the overtaken request served epoch %d, want 2", got.db.Epoch())
	}
	if got := b.cur.Load().db; got != sessions[2] {
		t.Fatalf("the replica now serves epoch %d, want 2", got.Epoch())
	}
}

// TestReplicaServesItsSourceSession: when the replica's source moves
// to another session (a re-bootstrap), the next request is answered
// from it — probes, queries and exports report its epoch — and the
// export validator changes even though the epoch did not.
func TestReplicaServesItsSourceSession(t *testing.T) {
	_, _, db := newTestServer(t)
	src := &source{}
	src.db.Store(db)
	srv, hs := newTestReplica(t, src)
	epochs := func() (probe, query uint64, etag string) {
		t.Helper()
		resp, err := http.Get(hs.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		probe = decode[wire.HealthResponse](t, resp).Epoch
		qr := postJSON(t, hs.URL+"/v1/query", wire.QueryRequest{Query: queryX1})
		qr.Body.Close()
		if query, err = strconv.ParseUint(qr.Header.Get("X-Dualsim-Epoch"), 10, 64); err != nil {
			t.Fatal(err)
		}
		ex, err := http.Get(hs.URL + "/v1/export?pred=directed")
		if err != nil {
			t.Fatal(err)
		}
		ex.Body.Close()
		return probe, query, ex.Header.Get("ETag")
	}
	if p, q, _ := epochs(); p != 0 || q != 0 {
		t.Fatalf("before the swap: probe epoch %d, query epoch %d; want 0", p, q)
	}

	st, err := dualsim.FromTriples(queries.Fig1aTriples())
	if err != nil {
		t.Fatal(err)
	}
	db7, err := dualsim.OpenAt(st, 7)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db7.Close() })
	src.db.Store(db7)
	p, q, v7 := epochs()
	if p != 7 || q != 7 || !strings.HasSuffix(v7, `-7"`) {
		t.Fatalf("after the swap: probe epoch %d, query epoch %d, ETag %s; want 7", p, q, v7)
	}
	if _, _, again := epochs(); again != v7 {
		t.Fatalf("validator %s changed to %s with the session unchanged", v7, again)
	}
	if got := srv.Registry().Snapshot()["dualsimd_epoch"]; got != 7 {
		t.Fatalf("dualsimd_epoch = %v after the swap, want 7", got)
	}

	// The same store at the same epoch in another session: a new validator.
	db7b, err := dualsim.OpenAt(st, 7)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db7b.Close() })
	src.db.Store(db7b)
	if _, _, v := epochs(); v == v7 || !strings.HasSuffix(v, `-7"`) {
		t.Fatalf("validator %s after a change of session at epoch 7, was %s", v, v7)
	}
}
