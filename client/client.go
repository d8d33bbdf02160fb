// Package client is the typed Go client of the dualsimd serving API
// (internal/server, cmd/dualsimd): queries, read as the NDJSON stream
// they are answered with or whole, live deltas, compaction,
// snapshot/health introspection — with bounded retries that honour the
// server's Retry-After shedding hints.
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
	"slices"
	"strconv"
	"strings"
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

// ApplyResponse, SnapshotResponse and the others mirror the server's
// JSON bodies.
type (
	ApplyResponse      = wire.ApplyResponse
	CheckpointResponse = wire.CheckpointResponse
	SnapshotResponse   = wire.SnapshotResponse
	HealthResponse     = wire.HealthResponse
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

// Client talks to one dualsimd server. Safe for concurrent use.
type Client struct {
	base    string
	hc      *http.Client
	retries int
	backoff time.Duration // base retry backoff without a Retry-After hint, doubled per attempt with jitter
	readers chan *reader
}

// reader is what a stream reads its lines with: the scanner's buffer
// and the term table. A scanner that outgrows the buffer allocates its
// own, which is not kept, so a kept buffer is scanBuf bytes.
type reader struct {
	buf   []byte
	table wire.TermTable
}

// A client keeps up to idleReaders readers of closed streams for its
// next ones, each with a table of at most maxIdleBytes (the values
// themselves are never reused), so one large answer does not stay
// resident. Two idle readers serve two streams read at once, as a
// router reads two branches from one shard, without the readers of a
// burst of concurrent streams staying behind. A table's slices double,
// so its size is a power of two: 512 KB keeps a table of 32 768
// values. Most answers are a handful of short lines, so a
// scanner starts on scanBuf bytes and grows on demand up to
// maxLineBytes, which bounds one line.
const (
	idleReaders  = 2
	maxIdleBytes = 512 << 10
	scanBuf      = 4 << 10
	maxLineBytes = 16 << 20
)

// getReader returns an idle reader, or a new one.
func (c *Client) getReader() *reader {
	select {
	case rd := <-c.readers:
		return rd
	default:
		return &reader{buf: make([]byte, scanBuf)}
	}
}

// putReader keeps rd for a later stream, if its table is small and a
// slot is free.
func (c *Client) putReader(rd *reader) {
	if rd.table.Size() > maxIdleBytes {
		return
	}
	rd.table.Reset()
	select {
	case c.readers <- rd:
	default:
	}
}

// New returns a client for the server at baseURL, an absolute http or
// https URL with a host (e.g. "http://127.0.0.1:8321").
func New(baseURL string, opts ...Option) (*Client, error) {
	if u, err := url.Parse(baseURL); err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, fmt.Errorf("client: base URL %q is not an absolute http(s) URL with a host", baseURL)
	}
	c := &Client{
		base:    strings.TrimRight(baseURL, "/"),
		hc:      http.DefaultClient,
		retries: 2,
		backoff: 100 * time.Millisecond,
		readers: make(chan *reader, idleReaders),
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

// QueryResponse is a query's stream read whole.
type QueryResponse struct {
	Vars []string
	// Rows are decoded bindings, positional over Vars; nil marks an
	// unbound variable.
	Rows      [][]*string
	Epoch     uint64
	Truncated bool
	Stats     *dualsim.ExecStats
}

// Query executes one query and reads its stream (QueryStream) whole. A
// Timeout option asks the server to bound the execution; pair it with a
// ctx deadline for end-to-end bounds.
func (c *Client) Query(ctx context.Context, src string, opts ...QueryOpt) (*QueryResponse, error) {
	st, err := c.QueryStream(ctx, src, opts...)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	out := &QueryResponse{Vars: st.Vars(), Epoch: st.Epoch()}
	for st.Next() {
		out.Rows = append(out.Rows, slices.Clone(st.Row()))
	}
	if err := st.Err(); err != nil {
		return nil, err
	}
	out.Truncated, out.Stats = st.Truncated(), st.Stats()
	return out, nil
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
	if err := c.doJSONHdr(ctx, "GET", "/v1/debug/slow", nil, &out, true, nil); err != nil {
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
	if err := c.doJSONHdr(ctx, "GET", path, nil, &out, true, nil); err != nil {
		return nil, err
	}
	return &out, nil
}

// reqOpts is the resolved form of a QueryOpt list.
type reqOpts struct {
	timeoutMs   int64
	limit       int
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

// QueryOpt tweaks one query.
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

// Limit truncates the response to n rows.
func Limit(n int) QueryOpt {
	return func(r *reqOpts) { r.limit = n }
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

// Apply submits a live delta: dels before adds, atomic, publishing the
// next epoch. Not retried on transport errors (the outcome would be
// ambiguous); 429 shedding is retried — the server never admitted the
// request.
func (c *Client) Apply(ctx context.Context, adds, dels []Triple) (*ApplyResponse, error) {
	req := wire.ApplyRequest{Adds: adds, Dels: dels}
	var out ApplyResponse
	if err := c.doJSONHdr(ctx, "POST", "/v1/apply", &req, &out, false, nil); err != nil {
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

// Compact asks the server to rebuild its store (fresh dictionary).
func (c *Client) Compact(ctx context.Context) (*ApplyResponse, error) {
	var out ApplyResponse
	if err := c.doJSONHdr(ctx, "POST", "/v1/compact", nil, &out, false, nil); err != nil {
		return nil, err
	}
	return &out, nil
}

// Checkpoint asks a durable server (dualsimd -data) to roll its WAL
// into a fresh on-disk snapshot. A server without a data dir answers
// 409.
func (c *Client) Checkpoint(ctx context.Context) (*CheckpointResponse, error) {
	var out CheckpointResponse
	if err := c.doJSONHdr(ctx, "POST", "/v1/checkpoint", nil, &out, false, nil); err != nil {
		return nil, err
	}
	return &out, nil
}

// Snapshot reports the server's current epoch and store shape.
func (c *Client) Snapshot(ctx context.Context) (*SnapshotResponse, error) {
	var out SnapshotResponse
	if err := c.doJSONHdr(ctx, "GET", "/v1/snapshot", nil, &out, true, nil); err != nil {
		return nil, err
	}
	return &out, nil
}

// Health probes /healthz: liveness, 200 as long as the process serves.
// A draining server reports Status "draining"; Ready is what fails.
func (c *Client) Health(ctx context.Context) (*HealthResponse, error) {
	var out HealthResponse
	if err := c.doJSONHdr(ctx, "GET", "/healthz", nil, &out, true, nil); err != nil {
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
	if err := c.doJSONHdr(ctx, "GET", "/readyz", nil, &out, true, nil); err != nil {
		return nil, err
	}
	return &out, nil
}

// ExportedSlice is one answer of Export.
type ExportedSlice struct {
	// Store holds the slice: exactly the triples of the named predicates
	// and the terms they use. Nil when NotModified.
	Store *dualsim.Store
	// Epoch is the epoch the slice was taken at.
	Epoch uint64
	// ETag is the slice's validator, "<session nonce>-<epoch>" quoted:
	// it names this state of this served session and no other.
	ETag string
	// Size is the container's length on the wire, 0 when NotModified.
	Size int
	// NotModified reports a 304: the server's current validator, ETag,
	// is one of those the caller holds, so its slice is still current.
	NotModified bool
}

// Export fetches every triple of the named predicates at one pinned
// epoch (GET /v1/export) — the cluster router's cross-shard gather path.
// The slice arrives in the snapshot container and decodes into a store
// of its own. held lists validators (ETags of earlier answers for the
// same predicates) the caller still has the slice of; when the server's
// current validator is among them it answers 304 without encoding
// anything, and the result reports NotModified with that validator.
func (c *Client) Export(ctx context.Context, preds []string, held ...string) (*ExportedSlice, error) {
	if len(preds) == 0 {
		return nil, fmt.Errorf("client: export needs at least one predicate")
	}
	var hdr http.Header
	if len(held) > 0 {
		hdr = http.Header{"If-None-Match": {strings.Join(held, ", ")}}
	}
	resp, err := c.doHdr(ctx, "GET", "/v1/export?"+url.Values{"pred": preds}.Encode(), nil, "", true, hdr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := &ExportedSlice{ETag: resp.Header.Get("ETag"), NotModified: resp.StatusCode == http.StatusNotModified}
	if out.NotModified {
		if out.Epoch, err = strconv.ParseUint(resp.Header.Get("X-Dualsim-Epoch"), 10, 64); err != nil {
			return nil, fmt.Errorf("client: export not modified, with a malformed epoch header: %w", err)
		}
		return out, nil
	}
	out.Store, out.Epoch, out.Size, err = decodeSnapshot(resp.Body)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// BootstrapSnapshot downloads the server's streamed bootstrap snapshot
// (GET /v1/wal/snapshot) and decodes it: the store state and the epoch
// it represents. A replica opens a session at that epoch and tails the
// WAL from there.
func (c *Client) BootstrapSnapshot(ctx context.Context) (*dualsim.Store, uint64, error) {
	resp, err := c.doHdr(ctx, "GET", "/v1/wal/snapshot", nil, "", true, nil)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	st, epoch, _, err := decodeSnapshot(resp.Body)
	return st, epoch, err
}

// decodeSnapshot reads one snapshot container and decodes it with the
// reader checkpoints use: magic, version, CRC and the body's bounds.
func decodeSnapshot(body io.Reader) (*dualsim.Store, uint64, int, error) {
	blob, err := io.ReadAll(body)
	if err != nil {
		return nil, 0, 0, err
	}
	st, epoch, err := persist.DecodeSnapshot(blob)
	return st, epoch, len(blob), err
}

// ErrWALGap reports a 410 from GET /v1/wal: the records after the
// requested epoch were checkpointed away, so tailing cannot continue —
// the replica must re-bootstrap from BootstrapSnapshot.
var ErrWALGap = errors.New("client: requested WAL epochs were checkpointed away; re-bootstrap from a snapshot")

// TailWAL fetches the replication tail: the WAL records with epoch >
// fromEpoch, read by persist.ReadWAL, the frame reader recovery uses,
// so every record has passed its CRC. It also returns the primary's
// epoch when the tail was cut, the catch-up target, and returns it
// with the error when a tail that answered 200 is refused, so a
// replica stuck behind a damaged tail still sees how far it lags.
// wait > 0 asks the server to long-poll an empty tail for that long
// before answering, so an idle primary does not force tight
// client-side polling. A body without Content-Length, or one that
// stops short of it, is an error: a tail cut at a frame boundary would
// otherwise read as complete. The whole tail is decoded before it is
// returned, so a catch-up holds every record after fromEpoch in memory
// at once. Returns ErrWALGap (wrapped) when the range is gone, and an
// *APIError with StatusCode 409 when the server has no WAL at all (not
// durable).
func (c *Client) TailWAL(ctx context.Context, fromEpoch uint64, wait time.Duration) ([]persist.Record, uint64, error) {
	path := fmt.Sprintf("/v1/wal?fromEpoch=%d", fromEpoch)
	if wait > 0 {
		path += fmt.Sprintf("&waitMs=%d", wait.Milliseconds())
	}
	resp, err := c.doHdr(ctx, "GET", path, nil, "", true, nil)
	if err != nil {
		var ae *APIError
		if errors.As(err, &ae) && ae.StatusCode == http.StatusGone {
			return nil, 0, fmt.Errorf("%w: %s", ErrWALGap, ae.Message)
		}
		return nil, 0, err
	}
	defer resp.Body.Close()
	primary, err := strconv.ParseUint(resp.Header.Get("X-Dualsim-Epoch"), 10, 64)
	if err != nil {
		return nil, 0, fmt.Errorf("client: WAL tail with a malformed epoch header: %w", err)
	}
	if resp.ContentLength < 0 {
		return nil, primary, errors.New("client: WAL tail without Content-Length")
	}
	recs, _, err := persist.ReadWAL(bufio.NewReader(resp.Body))
	if err != nil {
		return nil, primary, fmt.Errorf("client: WAL tail: %w", err)
	}
	return recs, primary, nil
}

// Metrics fetches the raw Prometheus-style metrics page.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	resp, err := c.doHdr(ctx, "GET", "/metrics", nil, "", true, nil)
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
// over Stream.Vars, nil for unbound variables. Rows are read-only. A
// Stream's Row is a view, like bufio.Scanner.Bytes: the slice is reused
// by the next Next. Its values are not: the rows of one stream share one
// *string per term (each term is decoded once), carved from chunks that
// are never recycled, so a value stays valid after later calls to Next
// and after Close, and keeps its chunk alive. A caller that keeps a row
// copies the slice, slices.Clone(st.Row()), and not the values.
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
	done   bool    // the trailer is in
	rd     *reader // the stream's buffer and terms; back to the client on Close
	cur    Row
	err    error
	closed bool

	client *Client

	// ctx is the QueryStream context. The request carries it, so when it
	// ends net/http aborts a body read blocked on a stalled server, and
	// Next reports ctx.Err() rather than the induced read error.
	ctx context.Context
}

// Vars returns the result columns (available immediately: the header is
// read during QueryStream).
func (s *Stream) Vars() []string { return s.vars }

// Epoch returns the store epoch the execution answers from.
func (s *Stream) Epoch() uint64 { return s.epoch }

// Next advances to the next row and decodes it into Row's slice, which
// it reuses: a Row from an earlier call now holds this row. It returns
// false at the end of the stream or on error — check Err.
func (s *Stream) Next() bool {
	for {
		line, ok := s.NextLine()
		if !ok {
			return false
		}
		kind, err := s.rd.table.Read(line, len(s.vars), true)
		if err != nil {
			s.err = fmt.Errorf("client: bad stream line: %w", err)
			return false
		}
		if kind == wire.LineRow {
			s.cur = s.rd.table.AppendRow(s.cur[:0])
			return true
		}
	}
}

// NextLine advances to the stream's next term or row line and returns
// it as it came, without its newline, for a consumer that reads the
// lines itself (wire.TermTable): the stream neither reads nor checks
// it, and Row is not updated. The line is valid until the next call. The
// events are read as Next reads them: at the stats trailer, whose
// epoch must be the header's, at an error event, or on error, it
// returns false — check Err.
func (s *Stream) NextLine() ([]byte, bool) {
	if s.err != nil || s.closed || s.done {
		return nil, false
	}
	for s.sc.Scan() {
		// Term and row lines are the wire codec's; the rest — the
		// trailer, an error event — is one reflected decode.
		line := s.sc.Bytes()
		if len(line) > 0 && (line[0] == '"' || line[0] == '[') {
			return line, true
		}
		var ev wire.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			s.err = fmt.Errorf("client: bad stream line: %w", err)
			return nil, false
		}
		switch ev.Kind {
		case wire.EventStats:
			s.done = true
			s.stats = ev.Stats
			s.rows = ev.Rows
			s.trunc = ev.Truncated
			if s.stats != nil && s.stats.Epoch != s.epoch {
				s.err = fmt.Errorf("client: epoch tear: header %d, stats %d", s.epoch, s.stats.Epoch)
			}
			s.drain()
			return nil, false
		case wire.EventError:
			s.err = &StreamError{Message: ev.Error}
			s.drain()
			return nil, false
		default:
			s.err = fmt.Errorf("client: unexpected stream event %q", ev.Kind)
			return nil, false
		}
	}
	if err := s.sc.Err(); err != nil {
		// A cancelled context aborts the body read under the scanner;
		// report the cancellation, not the induced read error.
		if s.ctx.Err() != nil {
			err = s.ctx.Err()
		}
		s.err = err
	} else if s.ctx.Err() != nil {
		s.err = s.ctx.Err()
	} else {
		s.err = fmt.Errorf("client: stream ended without stats trailer")
	}
	return nil, false
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

// Row returns the current row after a true Next, valid until the next
// Next. Its values stay valid after that and after Close; to keep the
// row, keep slices.Clone(st.Row()).
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
	s.client.putReader(s.rd)
	s.rd = nil
	return s.body.Close()
}

// QueryStream executes one query and decodes the result incrementally.
// The server sends the stream's header with its first row (or its
// trailer), so an execution that fails before then returns here as an
// *APIError with the server's status; one that fails later ends the
// Stream with a *StreamError. The returned Stream must be Closed
// (draining it fully also releases the connection for reuse).
func (c *Client) QueryStream(ctx context.Context, src string, opts ...QueryOpt) (*Stream, error) {
	o := collect(opts)
	req := wire.QueryRequest{Query: src, TimeoutMs: o.timeoutMs, Limit: o.limit, Trace: o.trace}
	body, err := json.Marshal(&req)
	if err != nil {
		return nil, err
	}
	resp, err := c.doHdr(ctx, "POST", "/v1/query", body, wire.ContentTypeJSON, true, o.header())
	if err != nil {
		return nil, err
	}
	rd := c.getReader()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(rd.buf, maxLineBytes)
	st := &Stream{body: resp.Body, sc: sc, ctx: ctx, client: c}
	fail := func(err error) (*Stream, error) {
		c.putReader(rd)
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
	st.vars, st.epoch, st.rd = header.Vars, header.Epoch, rd
	return st, nil
}

// ---------------------------------------------------------------------------
// Transport

// doJSONHdr runs one round-trip with retries, with extra request
// headers when hdr is non-nil (the trace-context propagation path), and
// decodes the JSON reply.
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

// doHdr performs the request, with extra request headers when hdr is
// non-nil, retrying shed (429) and unavailable (503) replies — and
// transport errors when the call is idempotent — up to the configured
// retry budget. Non-2xx replies come back as *APIError.
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
		case resp.StatusCode < 300, resp.StatusCode == http.StatusNotModified:
			// 304 answers a conditional request (Export): the caller's
			// copy is current, which is a success.
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
