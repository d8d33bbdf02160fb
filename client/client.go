// Package client is the typed Go client of the dualsimd serving API
// (internal/server, cmd/dualsimd): queries with buffered or streamed
// (NDJSON) results, batches, live deltas, compaction, snapshot/health
// introspection — with bounded retries that honour the server's
// Retry-After shedding hints.
//
// Consistency: every response is epoch-tagged. A streamed result's
// header and stats trailer carry the same epoch, and Stream.Epoch
// exposes it, so callers interleaving reads with Apply can pin their
// view the same way in-process sessions do.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"dualsim"
	"dualsim/internal/persist"
	"dualsim/internal/wire"
)

// Triple is the wire form of one RDF triple (re-exported so callers
// need not import internal packages).
type Triple = wire.Triple

// FromTriple converts an engine triple to wire form.
func FromTriple(t dualsim.Triple) Triple { return wire.FromTriple(t) }

// QueryResponse, BatchResponse, ApplyResponse, SnapshotResponse and
// HealthResponse mirror the server's JSON bodies.
type (
	QueryResponse      = wire.QueryResponse
	BatchItem          = wire.BatchItem
	BatchResponse      = wire.BatchResponse
	ApplyResponse      = wire.ApplyResponse
	CheckpointResponse = wire.CheckpointResponse
	SnapshotResponse   = wire.SnapshotResponse
	HealthResponse     = wire.HealthResponse
	ExportResponse     = wire.ExportResponse
	WALEvent           = wire.WALEvent
	ExplainResponse    = wire.ExplainResponse
	SlowLogResponse    = wire.SlowLogResponse
	StatementsResponse = wire.StatementsResponse
)

// APIError is a non-2xx server reply.
type APIError struct {
	// StatusCode is the HTTP status.
	StatusCode int
	// Message is the server's error string.
	Message string
	// RetryAfter is the server's backoff hint (0 when absent).
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("dualsimd: %d %s: %s", e.StatusCode, http.StatusText(e.StatusCode), e.Message)
}

// IsOverloaded reports whether err is the server shedding load (429);
// the request was never admitted, so retrying after the hint is safe
// for every endpoint, writes included.
func IsOverloaded(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.StatusCode == http.StatusTooManyRequests
}

// Option configures a Client.
type Option func(*Client) error

// WithHTTPClient substitutes the transport (default http.DefaultClient).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) error {
		if hc == nil {
			return fmt.Errorf("client: nil http client")
		}
		c.hc = hc
		return nil
	}
}

// WithRetries bounds how many times a retryable failure (429, 503, or a
// transport error on an idempotent call) is retried (default 2; 0
// disables).
func WithRetries(n int) Option {
	return func(c *Client) error {
		if n < 0 {
			return fmt.Errorf("client: negative retry count %d", n)
		}
		c.retries = n
		return nil
	}
}

// WithRetryBackoff sets the base backoff between retries when the
// server sent no Retry-After hint (default 100ms, doubled per attempt
// with jitter).
func WithRetryBackoff(d time.Duration) Option {
	return func(c *Client) error {
		if d <= 0 {
			return fmt.Errorf("client: retry backoff must be positive, got %v", d)
		}
		c.backoff = d
		return nil
	}
}

// Client talks to one dualsimd server. Safe for concurrent use.
type Client struct {
	base    string
	hc      *http.Client
	retries int
	backoff time.Duration
}

// New returns a client for the server at baseURL (e.g.
// "http://127.0.0.1:8321").
func New(baseURL string, opts ...Option) (*Client, error) {
	if baseURL == "" {
		return nil, fmt.Errorf("client: empty base URL")
	}
	c := &Client{
		base:    strings.TrimRight(baseURL, "/"),
		hc:      http.DefaultClient,
		retries: 2,
		backoff: 100 * time.Millisecond,
	}
	for _, opt := range opts {
		if err := opt(c); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// BaseURL returns the normalized server URL the client talks to.
func (c *Client) BaseURL() string { return c.base }

// Query executes one query and buffers the whole result. timeoutMs > 0
// asks the server to bound the execution; pair it with a ctx deadline
// for end-to-end bounds.
func (c *Client) Query(ctx context.Context, src string, opts ...QueryOpt) (*QueryResponse, error) {
	o := collect(opts)
	req := wire.QueryRequest{Query: src, TimeoutMs: o.timeoutMs, Limit: o.limit, Trace: o.trace}
	var out QueryResponse
	if err := c.doJSONHdr(ctx, "POST", "/v1/query", &req, &out, true, o.header()); err != nil {
		return nil, err
	}
	return &out, nil
}

// Explain asks the server for the compiled plan of src without
// executing it (mode "plan"), or with an instrumented execution behind
// it (mode "analyze") — the serving form of EXPLAIN / EXPLAIN ANALYZE.
func (c *Client) Explain(ctx context.Context, src, mode string, opts ...QueryOpt) (*ExplainResponse, error) {
	o := collect(opts)
	req := wire.QueryRequest{Query: src, TimeoutMs: o.timeoutMs, Explain: mode}
	var out ExplainResponse
	if err := c.doJSONHdr(ctx, "POST", "/v1/query", &req, &out, true, o.header()); err != nil {
		return nil, err
	}
	return &out, nil
}

// SlowQueries fetches the server's slow-query ring (GET /v1/debug/slow),
// newest first. A server without -slowlog answers with an empty ring and
// threshold 0.
func (c *Client) SlowQueries(ctx context.Context) (*SlowLogResponse, error) {
	var out SlowLogResponse
	if err := c.doJSON(ctx, "GET", "/v1/debug/slow", nil, &out, true); err != nil {
		return nil, err
	}
	return &out, nil
}

// Statements fetches the server's workload statistics table
// (GET /v1/debug/statements): per-normalized-statement aggregates,
// ordered by total execution time descending. Against a router, the
// rows are the fingerprint-keyed merge across every shard.
func (c *Client) Statements(ctx context.Context) (*StatementsResponse, error) {
	return c.statements(ctx, false)
}

// StatementsReset fetches the workload statistics table and then resets
// it — the returned snapshot is the last view of the cleared counters.
func (c *Client) StatementsReset(ctx context.Context) (*StatementsResponse, error) {
	return c.statements(ctx, true)
}

func (c *Client) statements(ctx context.Context, reset bool) (*StatementsResponse, error) {
	path := "/v1/debug/statements"
	if reset {
		path += "?reset=1"
	}
	var out StatementsResponse
	if err := c.doJSON(ctx, "GET", path, nil, &out, true); err != nil {
		return nil, err
	}
	return &out, nil
}

// reqOpts is the resolved form of a QueryOpt list.
type reqOpts struct {
	timeoutMs   int64
	limit       int
	failFast    bool
	trace       bool
	traceparent string
}

// header renders the option set's extra request headers (nil when none).
func (o reqOpts) header() http.Header {
	if o.traceparent == "" {
		return nil
	}
	return http.Header{"Traceparent": []string{o.traceparent}}
}

func collect(opts []QueryOpt) reqOpts {
	var o reqOpts
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// QueryOpt tweaks one query (or a batch).
type QueryOpt func(*reqOpts)

// Timeout asks the server to abort the execution after d (rounded to
// milliseconds, minimum 1ms).
func Timeout(d time.Duration) QueryOpt {
	return func(r *reqOpts) {
		ms := d.Milliseconds()
		if ms < 1 {
			ms = 1
		}
		r.timeoutMs = ms
	}
}

// Limit truncates the response to n rows (per batch member on Batch).
func Limit(n int) QueryOpt {
	return func(r *reqOpts) { r.limit = n }
}

// FailFast makes a Batch abort on its first failing query: the
// remaining members are cancelled and report the cancellation in their
// error slots. Ignored by Query/QueryStream.
func FailFast() QueryOpt {
	return func(r *reqOpts) { r.failFast = true }
}

// Trace asks the server for the request's span tree, returned in the
// response stats (ExecStats.Trace) alongside the X-Dualsim-Trace
// response header.
func Trace() QueryOpt {
	return func(r *reqOpts) { r.trace = true }
}

// Traceparent propagates an existing W3C trace context: the header is
// sent verbatim, the server adopts its trace ID and returns the span
// tree (a valid traceparent implies Trace).
func Traceparent(tp string) QueryOpt {
	return func(r *reqOpts) { r.traceparent = tp }
}

// Batch executes queries concurrently on the server's batch pool and
// returns positional results, each with its own error slot — a failing
// query does not fail the batch (unless FailFast is given, which
// cancels the rest after the first failure).
func (c *Client) Batch(ctx context.Context, srcs []string, opts ...QueryOpt) (*BatchResponse, error) {
	o := collect(opts)
	req := wire.BatchRequest{Queries: srcs, TimeoutMs: o.timeoutMs, Limit: o.limit, FailFast: o.failFast, Trace: o.trace}
	var out BatchResponse
	if err := c.doJSONHdr(ctx, "POST", "/v1/batch", &req, &out, true, o.header()); err != nil {
		return nil, err
	}
	return &out, nil
}

// Apply submits a live delta: dels before adds, atomic, publishing the
// next epoch. Not retried on transport errors (the outcome would be
// ambiguous); 429 shedding is retried — the server never admitted the
// request.
func (c *Client) Apply(ctx context.Context, adds, dels []Triple) (*ApplyResponse, error) {
	req := wire.ApplyRequest{Adds: adds, Dels: dels}
	var out ApplyResponse
	if err := c.doJSON(ctx, "POST", "/v1/apply", &req, &out, false); err != nil {
		return nil, err
	}
	return &out, nil
}

// ApplyDelta is Apply for an engine-level Delta value.
func (c *Client) ApplyDelta(ctx context.Context, d dualsim.Delta) (*ApplyResponse, error) {
	adds := make([]Triple, len(d.Adds))
	for i, t := range d.Adds {
		adds[i] = wire.FromTriple(t)
	}
	dels := make([]Triple, len(d.Dels))
	for i, t := range d.Dels {
		dels[i] = wire.FromTriple(t)
	}
	return c.Apply(ctx, adds, dels)
}

// Compact asks the server to consolidate the live-update overlay.
func (c *Client) Compact(ctx context.Context) (*ApplyResponse, error) {
	var out ApplyResponse
	if err := c.doJSON(ctx, "POST", "/v1/compact", nil, &out, false); err != nil {
		return nil, err
	}
	return &out, nil
}

// Checkpoint asks a durable server (dualsimd -data) to roll its WAL
// into a fresh on-disk snapshot. A server without a data dir answers
// 409.
func (c *Client) Checkpoint(ctx context.Context) (*CheckpointResponse, error) {
	var out CheckpointResponse
	if err := c.doJSON(ctx, "POST", "/v1/checkpoint", nil, &out, false); err != nil {
		return nil, err
	}
	return &out, nil
}

// Snapshot reports the server's current epoch and store shape.
func (c *Client) Snapshot(ctx context.Context) (*SnapshotResponse, error) {
	var out SnapshotResponse
	if err := c.doJSON(ctx, "GET", "/v1/snapshot", nil, &out, true); err != nil {
		return nil, err
	}
	return &out, nil
}

// Health probes /healthz. A draining server returns an *APIError with
// StatusCode 503.
func (c *Client) Health(ctx context.Context) (*HealthResponse, error) {
	var out HealthResponse
	if err := c.doJSON(ctx, "GET", "/healthz", nil, &out, true); err != nil {
		return nil, err
	}
	return &out, nil
}

// Ready probes /readyz — the routing decision, as opposed to Health's
// liveness. A draining, bootstrapping or lagging server returns an
// *APIError with StatusCode 503 immediately (no retries: not-ready IS
// the answer a prober needs).
func (c *Client) Ready(ctx context.Context) (*HealthResponse, error) {
	var out HealthResponse
	if err := c.doJSON(ctx, "GET", "/readyz", nil, &out, true); err != nil {
		return nil, err
	}
	return &out, nil
}

// Export fetches every triple of the named predicates at one pinned
// epoch (GET /v1/export) — the cluster router's cross-shard gather path.
func (c *Client) Export(ctx context.Context, preds []string) (*ExportResponse, error) {
	if len(preds) == 0 {
		return nil, fmt.Errorf("client: export needs at least one predicate")
	}
	q := url.Values{"pred": preds}
	var out ExportResponse
	if err := c.doJSON(ctx, "GET", "/v1/export?"+q.Encode(), nil, &out, true); err != nil {
		return nil, err
	}
	return &out, nil
}

// BootstrapSnapshot downloads the server's streamed bootstrap snapshot
// (GET /v1/wal/snapshot) and decodes it: the store state and the epoch
// it represents. A replica opens a session at that epoch and tails the
// WAL from there.
func (c *Client) BootstrapSnapshot(ctx context.Context) (*dualsim.Store, uint64, error) {
	resp, err := c.do(ctx, "GET", "/v1/wal/snapshot", nil, "", true)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	return persist.DecodeSnapshot(blob)
}

// ErrWALGap reports a 410 from GET /v1/wal: the records after the
// requested epoch were checkpointed away, so tailing cannot continue —
// the replica must re-bootstrap from BootstrapSnapshot.
var ErrWALGap = errors.New("client: requested WAL epochs were checkpointed away; re-bootstrap from a snapshot")

// TailWAL opens the replication tail: every WAL record with epoch >
// fromEpoch as a WALStream. wait > 0 asks the server to long-poll an
// empty tail for that long before answering, so an idle primary does
// not force tight client-side polling. Returns ErrWALGap (wrapped) when
// the range is gone, and an *APIError with StatusCode 409 when the
// server has no WAL at all (not durable).
func (c *Client) TailWAL(ctx context.Context, fromEpoch uint64, wait time.Duration) (*WALStream, error) {
	path := fmt.Sprintf("/v1/wal?fromEpoch=%d", fromEpoch)
	if wait > 0 {
		path += fmt.Sprintf("&waitMs=%d", wait.Milliseconds())
	}
	resp, err := c.do(ctx, "GET", path, nil, "", true)
	if err != nil {
		var ae *APIError
		if errors.As(err, &ae) && ae.StatusCode == http.StatusGone {
			return nil, fmt.Errorf("%w: %s", ErrWALGap, ae.Message)
		}
		return nil, err
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 256<<20)
	ws := &WALStream{body: resp.Body, sc: sc}
	if !sc.Scan() {
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("client: empty WAL stream")
	}
	var header wire.WALEvent
	if err := json.Unmarshal(sc.Bytes(), &header); err != nil || header.Kind != wire.WALHeader {
		resp.Body.Close()
		return nil, fmt.Errorf("client: WAL stream did not start with a header (%v)", err)
	}
	ws.primaryEpoch, ws.ckptEpoch = header.Epoch, header.CheckpointEpoch
	return ws, nil
}

// WALStream is an in-flight replication tail. Iterate with Next until
// false, then check Err; Close releases the connection. Not safe for
// concurrent use.
type WALStream struct {
	body   io.ReadCloser
	sc     *bufio.Scanner
	cur    wire.WALEvent
	err    error
	done   bool
	closed bool

	primaryEpoch uint64
	ckptEpoch    uint64
}

// PrimaryEpoch is the primary's current epoch when the tail was cut —
// the catch-up target (available immediately from the header).
func (s *WALStream) PrimaryEpoch() uint64 { return s.primaryEpoch }

// CheckpointEpoch is the primary's last checkpoint epoch: the oldest
// epoch a fresh bootstrap snapshot can start from.
func (s *WALStream) CheckpointEpoch() uint64 { return s.ckptEpoch }

// Next advances to the next WAL record event ("apply" or "compact").
// It returns false at the end trailer or on error — check Err.
func (s *WALStream) Next() bool {
	if s.err != nil || s.closed || s.done {
		return false
	}
	for s.sc.Scan() {
		var ev wire.WALEvent
		if err := json.Unmarshal(s.sc.Bytes(), &ev); err != nil {
			s.err = fmt.Errorf("client: bad WAL stream line: %w", err)
			return false
		}
		switch ev.Kind {
		case wire.WALApply, wire.WALCompact:
			s.cur = ev
			return true
		case wire.WALEnd:
			s.done = true
			return false
		default:
			s.err = fmt.Errorf("client: unexpected WAL stream event %q", ev.Kind)
			return false
		}
	}
	if err := s.sc.Err(); err != nil {
		s.err = err
	} else {
		// A tail that just stops is torn — the primary always writes the
		// end trailer; applying a possibly-truncated tail could diverge.
		s.err = fmt.Errorf("client: WAL stream ended without end trailer")
	}
	return false
}

// Event returns the current record event after a true Next.
func (s *WALStream) Event() WALEvent { return s.cur }

// Err returns the terminal error, nil on a clean end of stream.
func (s *WALStream) Err() error { return s.err }

// Close releases the connection. Safe to call twice.
func (s *WALStream) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	return s.body.Close()
}

// Metrics fetches the raw Prometheus-style metrics page.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	resp, err := c.do(ctx, "GET", "/metrics", nil, "", true)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	return string(buf), err
}

// ---------------------------------------------------------------------------
// Streaming

// Row is one streamed solution mapping: decoded bindings positional
// over Stream.Vars, nil for unbound variables.
type Row []*string

// Stream is an in-flight NDJSON query response. Iterate with Next until
// it returns false, then check Err; Stats is available afterwards.
// Close aborts early. A Stream is not safe for concurrent use.
type Stream struct {
	body   io.ReadCloser
	sc     *bufio.Scanner
	vars   []string
	epoch  uint64
	stats  *dualsim.ExecStats
	rows   int
	trunc  bool
	cur    Row
	err    error
	closed bool

	// ctx is the QueryStream context; a watcher goroutine closes body
	// when it cancels so a Next blocked on a stalled server returns
	// promptly. stopWatch retires the watcher (idempotent).
	ctx       context.Context
	stopWatch func()
}

// Vars returns the result columns (available immediately: the header is
// read during QueryStream).
func (s *Stream) Vars() []string { return s.vars }

// Epoch returns the store epoch the execution answers from.
func (s *Stream) Epoch() uint64 { return s.epoch }

// Next advances to the next row. It returns false at the end of the
// stream or on error — check Err.
func (s *Stream) Next() bool {
	if s.err != nil || s.closed || s.stats != nil {
		return false
	}
	for s.sc.Scan() {
		// Row lines go through the wire codec; what it declines — the
		// trailer, an error event, a row some other server spelled
		// differently — is one reflected decode.
		line := s.sc.Bytes()
		if epoch, values, ok := wire.DecodeRowEvent(line); ok {
			return s.row(epoch, values)
		}
		var ev wire.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			s.err = fmt.Errorf("client: bad stream line: %w", err)
			return false
		}
		switch ev.Kind {
		case wire.EventRow:
			return s.row(ev.Epoch, ev.Values)
		case wire.EventStats:
			s.stats = ev.Stats
			s.rows = ev.Rows
			s.trunc = ev.Truncated
			if s.stats != nil && s.stats.Epoch != s.epoch {
				s.err = fmt.Errorf("client: epoch tear: header %d, stats %d", s.epoch, s.stats.Epoch)
			}
			s.drain()
			return false
		case wire.EventError:
			s.err = &StreamError{Message: ev.Error}
			s.drain()
			return false
		default:
			s.err = fmt.Errorf("client: unexpected stream event %q", ev.Kind)
			return false
		}
	}
	if err := s.sc.Err(); err != nil {
		// A cancelled context closes the body out from under the scanner;
		// report the cancellation, not the induced read error.
		if s.ctx != nil && s.ctx.Err() != nil {
			err = s.ctx.Err()
		}
		s.err = err
	} else if s.ctx != nil && s.ctx.Err() != nil {
		s.err = s.ctx.Err()
	} else if s.stats == nil {
		s.err = fmt.Errorf("client: stream ended without stats trailer")
	}
	return false
}

// row makes one decoded row event current, unless it gives away a torn
// stream: every event carries the header's epoch.
func (s *Stream) row(epoch uint64, values []*string) bool {
	if epoch != s.epoch {
		s.err = fmt.Errorf("client: epoch tear: header %d, row %d", s.epoch, epoch)
		return false
	}
	s.cur = Row(values)
	return true
}

// drain reads the body to EOF once the last event is in. Nothing but
// the chunked terminator should follow it, but until that is read the
// body is not at EOF, and closing it would make net/http drop the
// connection instead of pooling it. Bounded like every other drain.
func (s *Stream) drain() {
	_, _ = io.Copy(io.Discard, io.LimitReader(s.body, maxDrainBytes))
}

// StreamError is an execution that failed after the server had
// committed the 200: the stream's in-band error event. The server is
// alive and judged the execution — a deadline, a memory budget — which
// is what sets it apart from a transport error.
type StreamError struct {
	// Message is the server's error string.
	Message string
}

func (e *StreamError) Error() string { return "dualsimd: mid-stream: " + e.Message }

// Row returns the current row after a true Next.
func (s *Stream) Row() Row { return s.cur }

// Stats returns the execution statistics once the stream is drained
// (nil before).
func (s *Stream) Stats() *dualsim.ExecStats { return s.stats }

// Rows returns the server-reported total row count (valid after the
// stream is drained); Truncated whether a Limit cut it short.
func (s *Stream) Rows() int       { return s.rows }
func (s *Stream) Truncated() bool { return s.trunc }

// Err returns the terminal error, nil on a clean end of stream.
func (s *Stream) Err() error { return s.err }

// Close releases the connection. Safe to call twice; Next returns false
// afterwards.
func (s *Stream) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if s.stopWatch != nil {
		s.stopWatch()
	}
	return s.body.Close()
}

// QueryStream executes one query and decodes the result incrementally.
// The returned Stream must be Closed (draining it fully also releases
// the connection for reuse).
func (c *Client) QueryStream(ctx context.Context, src string, opts ...QueryOpt) (*Stream, error) {
	o := collect(opts)
	req := wire.QueryRequest{Query: src, TimeoutMs: o.timeoutMs, Limit: o.limit, Stream: true, Trace: o.trace}
	body, err := json.Marshal(&req)
	if err != nil {
		return nil, err
	}
	resp, err := c.doHdr(ctx, "POST", "/v1/query", body, wire.ContentTypeJSON, true, o.header())
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(resp.Body)
	// Most answers are a handful of short lines; the buffer grows on
	// demand up to the cap, which bounds one row.
	sc.Buffer(make([]byte, 4<<10), 16<<20)
	st := &Stream{body: resp.Body, sc: sc, ctx: ctx}
	// Watch the context for the stream's whole lifetime — started before
	// the header read, because a server can stall before the first line
	// just as well as between rows. Closing the body is the only reliable
	// way to unblock a Read pinned inside the scanner; without it a
	// cancelled caller would hang until the server deigns to write.
	stop := make(chan struct{})
	var stopOnce sync.Once
	st.stopWatch = func() { stopOnce.Do(func() { close(stop) }) }
	go func() {
		select {
		case <-ctx.Done():
			resp.Body.Close()
		case <-stop:
		}
	}()
	fail := func(err error) (*Stream, error) {
		st.stopWatch()
		resp.Body.Close()
		return nil, err
	}
	// The header is always the first line; reading it here lets callers
	// see Vars/Epoch before the first Next.
	if !sc.Scan() {
		if err := ctx.Err(); err != nil {
			return fail(err)
		}
		if err := sc.Err(); err != nil {
			return fail(err)
		}
		return fail(fmt.Errorf("client: empty stream"))
	}
	var header wire.Event
	if err := json.Unmarshal(sc.Bytes(), &header); err != nil || header.Kind != wire.EventHeader {
		return fail(fmt.Errorf("client: stream did not start with a header (%v)", err))
	}
	st.vars, st.epoch = header.Vars, header.Epoch
	return st, nil
}

// ---------------------------------------------------------------------------
// Transport

// doJSON runs one round-trip with retries and decodes the JSON reply.
func (c *Client) doJSON(ctx context.Context, method, path string, in, out any, idempotent bool) error {
	return c.doJSONHdr(ctx, method, path, in, out, idempotent, nil)
}

// doJSONHdr is doJSON with extra request headers (the trace-context
// propagation path).
func (c *Client) doJSONHdr(ctx context.Context, method, path string, in, out any, idempotent bool, hdr http.Header) error {
	var body []byte
	contentType := ""
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
		contentType = wire.ContentTypeJSON
	}
	resp, err := c.doHdr(ctx, method, path, body, contentType, idempotent, hdr)
	if err != nil {
		return err
	}
	// Drain to EOF after decoding (the server appends a trailing newline
	// the decoder may leave unread) so the connection goes back to the
	// idle pool instead of being torn down by Close. Bounded like the
	// error path: a hostile never-ending 2xx body must not hang the
	// deferred drain — past the cap the connection is simply dropped.
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, maxDrainBytes))
		resp.Body.Close()
	}()
	return json.NewDecoder(resp.Body).Decode(out)
}

// do performs the request, retrying shed (429) and unavailable (503)
// replies — and transport errors when the call is idempotent — up to the
// configured retry budget. Non-2xx replies come back as *APIError.
func (c *Client) do(ctx context.Context, method, path string, body []byte, contentType string, idempotent bool) (*http.Response, error) {
	return c.doHdr(ctx, method, path, body, contentType, idempotent, nil)
}

// doHdr is do with extra request headers.
func (c *Client) doHdr(ctx context.Context, method, path string, body []byte, contentType string, idempotent bool, hdr http.Header) (*http.Response, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		for k, vs := range hdr {
			for _, v := range vs {
				req.Header.Set(k, v)
			}
		}
		resp, err := c.hc.Do(req)
		switch {
		case err != nil:
			lastErr = err
			if !idempotent || attempt >= c.retries {
				return nil, lastErr
			}
		case resp.StatusCode < 300:
			return resp, nil
		default:
			ae := readAPIError(resp)
			lastErr = ae
			// 429 (shed before admission) and 503 are transient — except
			// on the probe endpoints, where 503 IS the answer (draining,
			// bootstrapping, lagging) and must be reported immediately.
			retryable := resp.StatusCode == http.StatusTooManyRequests ||
				(resp.StatusCode == http.StatusServiceUnavailable && path != "/healthz" && path != "/readyz")
			if !retryable || attempt >= c.retries {
				return nil, lastErr
			}
		}
		if err := c.sleep(ctx, attempt, lastErr); err != nil {
			return nil, err
		}
	}
}

// maxBackoff caps the exponential retry backoff — it also keeps the
// shift below from overflowing time.Duration at high retry counts.
const maxBackoff = 30 * time.Second

// sleep waits out the backoff before the next attempt.
func (c *Client) sleep(ctx context.Context, attempt int, cause error) error {
	t := time.NewTimer(c.backoffFor(attempt, cause))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// backoffFor computes the wait before the next attempt: the server's
// Retry-After hint when present, else exponential with jitter. Every
// wait — hint-derived included — is clamped to maxBackoff: a bogus or
// hostile Retry-After header must not stall the client for hours.
func (c *Client) backoffFor(attempt int, cause error) time.Duration {
	d := c.backoff
	for i := 0; i < attempt && d < maxBackoff; i++ {
		d <<= 1
	}
	if d > maxBackoff {
		d = maxBackoff
	}
	var ae *APIError
	if errors.As(cause, &ae) && ae.RetryAfter > 0 {
		// An explicit server hint is honoured as a lower bound — only a
		// little extra jitter on top, never a shorter wait — up to the
		// same ceiling the exponential path respects.
		hint := ae.RetryAfter
		if hint > maxBackoff {
			hint = maxBackoff
		}
		d = hint + time.Duration(rand.Int63n(int64(hint/4)+1))
	} else {
		// Full jitter halves the thundering-herd on synchronized retries.
		d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	}
	if d > maxBackoff {
		d = maxBackoff
	}
	return d
}

// maxDrainBytes bounds how much of an unread response body is drained
// for the sake of connection reuse; a body even larger than this is
// hostile or broken and the connection is closed instead.
const maxDrainBytes = 4 << 20

// readAPIError drains a non-2xx body into an *APIError. The body is
// read to EOF (bounded) before Close: a retryable 429/503 that left
// unread bytes behind would force the transport to tear down the
// connection, so every retry would pay a fresh dial instead of reusing
// the idle connection.
func readAPIError(resp *http.Response) *APIError {
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, maxDrainBytes))
		resp.Body.Close()
	}()
	ae := &APIError{StatusCode: resp.StatusCode}
	var wireErr wire.ErrorResponse
	buf, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if json.Unmarshal(buf, &wireErr) == nil && wireErr.Error != "" {
		ae.Message = wireErr.Error
		if wireErr.RetryAfterMs > 0 {
			ae.RetryAfter = time.Duration(wireErr.RetryAfterMs) * time.Millisecond
		}
	} else {
		ae.Message = strings.TrimSpace(string(buf))
	}
	if ae.RetryAfter == 0 {
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			ae.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return ae
}
