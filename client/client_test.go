package client

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"dualsim"
	"dualsim/internal/persist"
	"dualsim/internal/queries"
	"dualsim/internal/server"
)

const queryX1 = `SELECT * WHERE { ?d <directed> ?m . ?d <worked_with> ?c . }`

func testClient(t *testing.T, opts ...Option) (*Client, *dualsim.DB) {
	t.Helper()
	st, err := dualsim.FromTriples(queries.Fig1aTriples())
	if err != nil {
		t.Fatal(err)
	}
	db, err := dualsim.Open(st, dualsim.WithPlanCache(16))
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
	c, err := New(hs.URL, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c, db
}

func TestClientQueryRoundTrip(t *testing.T) {
	c, _ := testClient(t)
	ctx := context.Background()

	out, err := c.Query(ctx, queryX1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 2 || out.Epoch != 0 || out.Stats == nil {
		t.Fatalf("query: %+v", out)
	}

	lim, err := c.Query(ctx, queryX1, Limit(1), Timeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	// The repeated text is served from the plan cache.
	if len(lim.Rows) != 1 || !lim.Truncated || !lim.Stats.CacheHit {
		t.Fatalf("limited query: %+v", lim)
	}

	if _, err := c.Query(ctx, "SELECT broken"); err == nil {
		t.Fatal("broken query succeeded")
	} else if IsOverloaded(err) {
		t.Fatalf("parse error misclassified: %v", err)
	}
}

func TestClientStreamDecode(t *testing.T) {
	c, _ := testClient(t)
	st, err := c.QueryStream(context.Background(), queryX1)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if len(st.Vars()) != 3 || st.Epoch() != 0 {
		t.Fatalf("header: vars %v epoch %d", st.Vars(), st.Epoch())
	}
	n := 0
	for st.Next() {
		row := st.Row()
		if len(row) != len(st.Vars()) {
			t.Fatalf("row arity %d", len(row))
		}
		for _, v := range row {
			if v == nil {
				t.Fatal("unexpected unbound binding in X1")
			}
		}
		n++
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 2 || st.Rows() != 2 || st.Stats() == nil || st.Stats().Epoch != 0 {
		t.Fatalf("stream end: n=%d rows=%d stats=%+v", n, st.Rows(), st.Stats())
	}
}

func TestClientApplyQueryEpochs(t *testing.T) {
	c, db := testClient(t)
	ctx := context.Background()

	ar, err := c.ApplyDelta(ctx, dualsim.Delta{Adds: []dualsim.Triple{
		dualsim.T("J._McTiernan", "directed", "Die_Hard"),
		dualsim.T("J._McTiernan", "worked_with", "S._de_Souza"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if ar.Stats.Epoch != 1 || ar.Stats.Added != 2 {
		t.Fatalf("apply: %+v", ar.Stats)
	}

	out, err := c.Query(ctx, queryX1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 3 || out.Epoch != 1 {
		t.Fatalf("post-apply query: %d rows, epoch %d", len(out.Rows), out.Epoch)
	}

	// Empty delta: no-op on the wire too.
	ar, err = c.Apply(ctx, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ar.Stats.NoOp || ar.Stats.Epoch != 1 || db.Epoch() != 1 {
		t.Fatalf("empty apply: %+v (session epoch %d)", ar.Stats, db.Epoch())
	}

	cr, err := c.Compact(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Stats.Epoch != 2 || !cr.Stats.Compacted {
		t.Fatalf("compact: %+v", cr.Stats)
	}

	snap, err := c.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Epoch != 2 || snap.Compactions != 1 {
		t.Fatalf("snapshot: %+v", snap)
	}
}

func TestClientHealthAndMetrics(t *testing.T) {
	c, _ := testClient(t)
	ctx := context.Background()
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Fatalf("health: %+v", h)
	}
	if _, err := c.Query(ctx, queryX1); err != nil {
		t.Fatal(err)
	}
	page, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if page == "" || !containsLine(page, "dualsimd_queries_total 1") {
		t.Fatalf("metrics page:\n%s", page)
	}
}

func containsLine(page, line string) bool {
	for len(page) > 0 {
		i := 0
		for i < len(page) && page[i] != '\n' {
			i++
		}
		if page[:i] == line {
			return true
		}
		if i == len(page) {
			break
		}
		page = page[i+1:]
	}
	return false
}

// emptyStream is a query's answer with no rows.
const emptyStream = `{"kind":"header","vars":["x"],"epoch":0}` + "\n" + `{"kind":"stats","epoch":0,"stats":{}}` + "\n"

// TestClientRetriesShedding points the client at a fake server that
// sheds twice before answering, and asserts the retry loop honours the
// Retry-After hint and eventually succeeds.
func TestClientRetriesShedding(t *testing.T) {
	var calls atomic.Int64
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"overloaded","retryAfterMs":1}`))
			return
		}
		w.Write([]byte(emptyStream))
	}))
	defer fake.Close()

	c, err := New(fake.URL, WithRetries(3), retryBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(context.Background(), "SELECT * WHERE { ?x <p> ?y . }"); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3", got)
	}

	// With the budget exhausted the 429 surfaces as an APIError.
	calls.Store(-100)
	c2, err := New(fake.URL, WithRetries(1), retryBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	_, err = c2.Query(context.Background(), "SELECT * WHERE { ?x <p> ?y . }")
	if !IsOverloaded(err) {
		t.Fatalf("want overload error, got %v", err)
	}
}

// TestClientHealthNoRetryOnDrain: a 503 from /healthz is the answer
// (the server is draining), not a transient failure — the probe must
// report it on the first round-trip instead of burning the retry
// budget.
func TestClientHealthNoRetryOnDrain(t *testing.T) {
	var calls atomic.Int64
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":"draining"}`))
	}))
	defer fake.Close()
	c, err := New(fake.URL, WithRetries(3), retryBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Health(context.Background())
	var ae *APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("health on draining server: %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("health probe retried: %d calls", got)
	}
}

func TestClientOptionValidation(t *testing.T) {
	for _, base := range []string{"", "localhost:8321", "127.0.0.1:8321", "ftp://x", "http://", "/v1", "http://%zz"} {
		if _, err := New(base); err == nil {
			t.Fatalf("base URL %q accepted", base)
		}
	}
	for _, base := range []string{"http://x", "https://x:8321/", "http://127.0.0.1:0"} {
		if _, err := New(base); err != nil {
			t.Fatalf("base URL %q refused: %v", base, err)
		}
	}
	for _, opt := range []Option{WithHTTPClient(nil), WithRetries(-1)} {
		if _, err := New("http://x", opt); err == nil {
			t.Fatal("invalid option accepted")
		}
	}
}

// retryBackoff sets the base retry backoff, which no option exposes, so
// the retry tests wait milliseconds rather than the default 100ms.
func retryBackoff(d time.Duration) Option {
	return func(c *Client) error {
		c.backoff = d
		return nil
	}
}

// TestClientRetryReusesConnection is the leak regression for the retry
// loop: a retryable 429/503 whose body is left partially unread forces
// the transport to tear the connection down, so every retry pays a
// fresh dial. The error bodies here exceed the 1 MB decode cap on
// purpose — the drain (not the decode) is what must reach EOF.
func TestClientRetryReusesConnection(t *testing.T) {
	big := make([]byte, 2<<20) // > the 1 MB decode cap, < the drain cap
	for i := range big {
		big[i] = ' '
	}
	var calls atomic.Int64
	fake := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Content-Length", strconv.Itoa(len(big)))
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write(big)
			return
		}
		w.Write([]byte(emptyStream))
	}))
	var conns atomic.Int64
	fake.Config.ConnState = func(c net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	fake.Start()
	defer fake.Close()

	// A dedicated transport so the shared DefaultClient's idle pool
	// cannot mask (or donate) connections.
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	c, err := New(fake.URL, WithHTTPClient(hc), WithRetries(3), retryBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(context.Background(), "SELECT * WHERE { ?x <p> ?y . }"); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3", got)
	}
	if got := conns.Load(); got != 1 {
		t.Fatalf("retries dialed %d connections, want 1 (drained bodies reuse the conn)", got)
	}
	// A follow-up request keeps riding the same connection.
	if _, err := c.Query(context.Background(), "SELECT * WHERE { ?x <p> ?y . }"); err != nil {
		t.Fatal(err)
	}
	if got := conns.Load(); got != 1 {
		t.Fatalf("follow-up request dialed a new connection (%d total)", got)
	}
}

// TestClientBackoffClampsRetryAfter pins the hint cap: a bogus huge
// Retry-After must not stall the client past maxBackoff.
func TestClientBackoffClampsRetryAfter(t *testing.T) {
	c, err := New("http://x", retryBackoff(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	hostile := &APIError{StatusCode: http.StatusTooManyRequests, RetryAfter: 12 * time.Hour}
	for attempt := 0; attempt < 4; attempt++ {
		if d := c.backoffFor(attempt, hostile); d > maxBackoff {
			t.Fatalf("attempt %d: hint-derived backoff %v exceeds maxBackoff %v", attempt, d, maxBackoff)
		}
	}
	// A sane hint is still honoured as a lower bound…
	sane := &APIError{StatusCode: http.StatusTooManyRequests, RetryAfter: 2 * time.Second}
	if d := c.backoffFor(0, sane); d < 2*time.Second || d > maxBackoff {
		t.Fatalf("sane hint gave %v", d)
	}
	// …and the exponential path keeps its own cap at high attempt counts
	// (the shift must not overflow time.Duration either).
	if d := c.backoffFor(200, errors.New("transport")); d > maxBackoff {
		t.Fatalf("exponential backoff %v exceeds maxBackoff", d)
	}
}

// TestClientReadyNoRetryOnNotReady mirrors the /healthz rule for the
// readiness probe: 503 is the answer, not a transient failure.
func TestClientReadyNoRetryOnNotReady(t *testing.T) {
	var calls atomic.Int64
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":"notready"}`))
	}))
	defer fake.Close()
	c, err := New(fake.URL, WithRetries(3), retryBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Ready(context.Background())
	var ae *APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ready on not-ready server: %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("ready probe retried: %d calls", got)
	}
}

// TestQueryStreamCtxCancelMidStream is the regression for a caller
// cancelling while the server stalls — before the NDJSON header line,
// or between rows: QueryStream or Next must return promptly with the
// context error instead of hanging on a read the server never finishes.
func TestQueryStreamCtxCancelMidStream(t *testing.T) {
	for _, tc := range []struct {
		name string
		sent string // the NDJSON lines written before the stall
		rows int    // rows the caller reads before it cancels
	}{
		{"before header", "", 0},
		{"between rows", `{"kind":"header","vars":["x"],"epoch":0}` + "\n" +
			`"<a>"` + "\n[0]\n", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stalled, unblock := make(chan struct{}), make(chan struct{})
			fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/x-ndjson")
				w.WriteHeader(http.StatusOK)
				io.WriteString(w, tc.sent)
				w.(http.Flusher).Flush()
				close(stalled)
				<-unblock // stall: no further bytes, no trailer
			}))
			t.Cleanup(func() {
				close(unblock)
				fake.Close()
			})
			c, err := New(fake.URL, WithRetries(0))
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			rows := make(chan int, 1)
			done := make(chan error, 1)
			go func() {
				st, err := c.QueryStream(ctx, queryX1)
				if err != nil {
					rows <- 0
					done <- err
					return
				}
				defer st.Close()
				n := 0
				for ; n < tc.rows && st.Next(); n++ {
				}
				rows <- n
				for st.Next() {
				}
				done <- st.Err()
			}()
			<-stalled
			if tc.rows > 0 {
				if n := <-rows; n != tc.rows {
					t.Fatalf("read %d rows before the stall, want %d", n, tc.rows)
				}
			}
			time.Sleep(20 * time.Millisecond) // let the reader block on the stalled body
			cancel()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("stream err = %v, want context.Canceled", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("the stream hung after ctx cancel while the server stalled")
			}
		})
	}
}

// TestClientReplication drives the replica-facing client surface
// against a durable server: readiness, bootstrap snapshot, WAL tail,
// predicate export, and the gap signal after a checkpoint.
func TestClientReplication(t *testing.T) {
	st, err := dualsim.FromTriples(queries.Fig1aTriples())
	if err != nil {
		t.Fatal(err)
	}
	db, err := dualsim.Open(st, dualsim.WithDataDir(t.TempDir()))
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
	c, err := New(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	ready, err := c.Ready(ctx)
	if err != nil || ready.Status != "ready" {
		t.Fatalf("ready: %+v, %v", ready, err)
	}

	if _, err := db.Apply(ctx, dualsim.Delta{Adds: []dualsim.Triple{dualsim.T("n1", "directed", "m1")}}); err != nil {
		t.Fatal(err)
	}

	bst, epoch, err := c.BootstrapSnapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 || bst.NumTriples() != db.Store().NumTriples() {
		t.Fatalf("bootstrap: epoch %d, %d triples", epoch, bst.NumTriples())
	}

	recs, primary, err := c.TailWAL(ctx, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if primary != 1 {
		t.Fatalf("primary epoch = %d", primary)
	}
	if len(recs) != 1 || recs[0].Kind != persist.RecordApply || recs[0].Epoch != 1 || len(recs[0].Adds) != 1 {
		t.Fatalf("tail records = %+v", recs)
	}

	ex, err := c.Export(ctx, []string{"directed", "directed"})
	if err != nil {
		t.Fatal(err)
	}
	pid, _ := db.Store().PredIDOf("directed")
	if ex.NotModified || ex.ETag == "" || ex.Epoch != 1 || ex.Store.NumPreds() != 1 || ex.Store.NumTriples() != db.Store().PredCount(pid) || ex.Size == 0 {
		t.Fatalf("export: %+v, %d predicates, %d triples", ex, ex.Store.NumPreds(), ex.Store.NumTriples())
	}
	for _, tr := range ex.Store.Triples() {
		if tr.P != "directed" {
			t.Fatalf("export leaked predicate %q", tr.P)
		}
	}
	// Holding the current validator (beside one that names nothing), the
	// export reports not modified, with the same validator and epoch.
	again, err := c.Export(ctx, []string{"directed"}, `"stale-0"`, ex.ETag)
	if err != nil {
		t.Fatal(err)
	}
	if !again.NotModified || again.Store != nil || again.ETag != ex.ETag || again.Epoch != 1 || again.Size != 0 {
		t.Fatalf("conditional export holding the current validator: %+v", again)
	}

	if _, err := db.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.TailWAL(ctx, 0, 0); !errors.Is(err, ErrWALGap) {
		t.Fatalf("tail across checkpoint = %v, want ErrWALGap", err)
	}
}

// TestTailWALRefusesACutBody: a tail is read whole or not at all. A
// body cut exactly at a frame boundary, short of its Content-Length,
// and a body without Content-Length are errors, never a shorter tail.
func TestTailWALRefusesACutBody(t *testing.T) {
	recs := []persist.Record{
		{Kind: persist.RecordApply, Epoch: 1, Adds: []dualsim.Triple{dualsim.T("n1", "directed", "m1")}},
		{Kind: persist.RecordApply, Epoch: 2, Adds: []dualsim.Triple{dualsim.T("n2", "directed", "m2")}},
	}
	body := persist.EncodeWAL(recs)
	// The second frame starts where a file of the first record ends.
	cut := len(persist.EncodeWAL(recs[:1]))
	var serve atomic.Value
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Dualsim-Epoch", "2")
		serve.Load().(func(http.ResponseWriter))(w)
	}))
	defer hs.Close()
	c, err := New(hs.URL, WithRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, tc := range []struct {
		name  string
		serve func(http.ResponseWriter)
		want  int // records, or -1 for an error
	}{
		{"whole", func(w http.ResponseWriter) {
			w.Header().Set("Content-Length", strconv.Itoa(len(body)))
			w.Write(body)
		}, 2},
		{"cut at a frame boundary", func(w http.ResponseWriter) {
			w.Header().Set("Content-Length", strconv.Itoa(len(body)))
			w.Write(body[:cut])
		}, -1},
		{"no Content-Length", func(w http.ResponseWriter) {
			w.Write(body[:cut])
			w.(http.Flusher).Flush()
		}, -1},
	} {
		serve.Store(tc.serve)
		recs, _, err := c.TailWAL(ctx, 0, 0)
		if tc.want < 0 && err == nil {
			t.Errorf("%s: TailWAL accepted %d records, want an error", tc.name, len(recs))
		}
		if tc.want >= 0 && (err != nil || len(recs) != tc.want) {
			t.Errorf("%s: TailWAL = %d records, %v; want %d", tc.name, len(recs), err, tc.want)
		}
	}
}
