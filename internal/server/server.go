// Package server is the HTTP/JSON protocol core of the dualsim serving
// layer: one handler set, written once against the Backend interface
// and served by both binaries — cmd/dualsimd over a local session (New)
// and cmd/dualsimrouter over the scatter-gather backend of
// internal/cluster/router (NewCore).
//
//	POST /v1/query     one query; buffered JSON or chunked NDJSON row
//	                   streaming (?stream=1, Accept: application/x-ndjson,
//	                   or "stream": true); "explain" returns the plan
//	POST /v1/batch     a query slice, executed concurrently
//	POST /v1/apply     a live delta (dels before adds)
//	GET  /v1/snapshot  current epoch + store shape
//	GET  /v1/debug/slow        slow-query ring (WithSlowQueryLog)
//	GET  /v1/debug/statements  workload statistics by statement
//	GET  /healthz      liveness (200 as long as the process serves)
//	GET  /readyz       readiness (503 while draining or not ready)
//	GET  /metrics      Prometheus-style text metrics
//
// The core performs admission, body decoding, deadline/trace/explain/
// stream flag resolution, error → status mapping, trace sealing,
// slow-log feeding and request metrics; a backend only executes. The
// local backend additionally mounts the routes that need a session:
//
//	POST /v1/compact   on-demand overlay compaction
//	POST /v1/checkpoint roll the durable session's WAL into a snapshot
//	GET  /v1/export    predicate slices at a pinned epoch (router gather)
//	GET  /v1/wal       replication tail: WAL records after an epoch (NDJSON)
//	GET  /v1/wal/snapshot  streamed DSIMSNP1 bootstrap snapshot
//
// Consistency: every query executes against a snapshot pinned for that
// request (MVCC-lite), and every response is epoch-tagged — the NDJSON
// header and the stats trailer carry the same epoch, results are decoded
// against that epoch's dictionary, and the X-Dualsim-Epoch response
// header repeats it. Concurrent /v1/apply traffic never tears a
// response.
//
// Overload: a semaphore-based admission controller (WithMaxInFlight)
// with a bounded wait queue (WithQueueDepth) sheds excess load with
// 429 + Retry-After instead of queueing unboundedly; per-request
// deadlines (timeoutMs) map onto the backend's context-cancellation
// plumbing and surface as 504. The probe and metrics endpoints skip
// admission, so a saturated instance still answers them.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"dualsim"
	"dualsim/internal/buildinfo"
	"dualsim/internal/metrics"
	qstats "dualsim/internal/stats"
	"dualsim/internal/trace"
	"dualsim/internal/wire"
)

// streamChunk is how many NDJSON row events are written between flushes:
// large enough to amortize the chunked-encoding overhead, small enough
// that a slow consumer sees steady progress.
const streamChunk = 256

// streamChunkBytes flushes earlier when the pending events are this
// large, so the per-response buffer is bounded by bytes too and not
// only by a row count (a row has no size limit).
const streamChunkBytes = 64 << 10

// maxBodyBytes bounds request bodies (applies included); beyond it the
// decoder fails with 413 rather than buffering an unbounded upload.
const maxBodyBytes = 64 << 20

// Option configures the protocol core (and, for the settings that say
// so, the local backend New builds under it).
type Option func(*config) error

type config struct {
	maxInFlight    int
	queueDepth     int
	retryAfter     time.Duration
	defaultTimeout time.Duration
	registry       *metrics.Registry
	readiness      func() error
	readOnly       bool
	slowLogSize    int
	slowThreshold  time.Duration
	stmtCapacity   int // statement statistics store capacity; 0 disables
}

func resolve(opts []Option) (config, error) {
	cfg := config{
		maxInFlight: 2 * runtime.GOMAXPROCS(0),
		queueDepth:  64,
		retryAfter:  time.Second,
		// The statistics table is on unless WithStatementStats(0).
		stmtCapacity: qstats.DefaultCapacity,
	}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

// WithMaxInFlight bounds the number of concurrently executing requests
// (default 2×GOMAXPROCS). Work beyond it waits in the bounded queue.
func WithMaxInFlight(n int) Option {
	return func(c *config) error {
		if n <= 0 {
			return fmt.Errorf("server: max in-flight must be positive, got %d", n)
		}
		c.maxInFlight = n
		return nil
	}
}

// WithQueueDepth bounds how many admitted-but-waiting requests may queue
// for an execution slot (default 64). Requests beyond maxInFlight +
// queueDepth are shed with 429 and a Retry-After hint. 0 disables
// queueing entirely: every request beyond the in-flight bound sheds.
func WithQueueDepth(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("server: negative queue depth %d", n)
		}
		c.queueDepth = n
		return nil
	}
}

// WithRetryAfter sets the Retry-After hint attached to shed responses
// (default 1s).
func WithRetryAfter(d time.Duration) Option {
	return func(c *config) error {
		if d <= 0 {
			return fmt.Errorf("server: retry-after must be positive, got %v", d)
		}
		c.retryAfter = d
		return nil
	}
}

// WithDefaultTimeout bounds requests that do not carry their own
// timeoutMs (default: unbounded).
func WithDefaultTimeout(d time.Duration) Option {
	return func(c *config) error {
		if d < 0 {
			return fmt.Errorf("server: negative default timeout %v", d)
		}
		c.defaultTimeout = d
		return nil
	}
}

// WithRegistry shares an existing metrics registry instead of creating a
// private one — so engine-level series and serving series land on the
// same /metrics page.
func WithRegistry(r *metrics.Registry) Option {
	return func(c *config) error {
		if r == nil {
			return fmt.Errorf("server: nil metrics registry")
		}
		c.registry = r
		return nil
	}
}

// WithReadiness installs a readiness hook consulted by GET /readyz
// before the backend's own Ready: a non-nil error makes the endpoint
// answer 503 with the error as the reason. A replica daemon wires its
// bootstrap/lag state through this, so the router (and load balancers)
// stop routing to an instance that would serve stale or no data — while
// /healthz keeps reporting the process alive.
func WithReadiness(fn func() error) Option {
	return func(c *config) error {
		if fn == nil {
			return fmt.Errorf("server: nil readiness hook")
		}
		c.readiness = fn
		return nil
	}
}

// WithReadOnly refuses the mutating endpoints (/v1/apply, /v1/compact,
// /v1/checkpoint) with 403 — the serving mode of a WAL-following
// replica, whose state must change only through the replication stream.
func WithReadOnly() Option {
	return func(c *config) error {
		c.readOnly = true
		return nil
	}
}

// WithSlowQueryLog keeps the n most recent queries that took at least
// threshold in a bounded in-memory ring, served at GET /v1/debug/slow.
// Enabling it traces every query internally (so slow entries carry a
// full span tree); the trace is still only returned to clients that
// asked for one. Default off — the untraced hot path stays
// allocation-free.
func WithSlowQueryLog(n int, threshold time.Duration) Option {
	return func(c *config) error {
		if n <= 0 {
			return fmt.Errorf("server: slow-query log size must be positive, got %d", n)
		}
		if threshold < 0 {
			return fmt.Errorf("server: negative slow-query threshold %v", threshold)
		}
		c.slowLogSize, c.slowThreshold = n, threshold
		return nil
	}
}

// Core serves the wire protocol over one Backend. Safe for concurrent
// use; it implements http.Handler.
type Core struct {
	backend   Backend
	querySpan string // root span name of a traced /v1/query
	admit     *admission
	mux       *http.ServeMux
	cfg       config
	reg       *metrics.Registry
	slow      *trace.SlowLog // nil unless WithSlowQueryLog

	// stmts is the workload statistics store query executions are
	// recorded in; nil (all methods are nil-safe no-ops then) unless the
	// backend is a local session with statistics on.
	stmts *qstats.Store

	requests *metrics.Counter
	queries  *metrics.Counter
	batches  *metrics.Counter
	applies  *metrics.Counter
	shed     *metrics.Counter
	errors   *metrics.Counter
	rows     *metrics.Counter
	draining *metrics.Gauge
	latency  *metrics.Histogram
}

// NewCore builds the protocol core over b. Its metric series are named
// metricPrefix_*; a traced /v1/query hangs its spans under a root named
// querySpan.
func NewCore(b Backend, metricPrefix, querySpan string, opts ...Option) (*Core, error) {
	cfg, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	return newCore(b, metricPrefix, querySpan, cfg, nil), nil
}

func newCore(b Backend, prefix, querySpan string, cfg config, stmts *qstats.Store) *Core {
	reg := cfg.registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	c := &Core{
		backend:   b,
		querySpan: querySpan,
		admit:     newAdmission(cfg.maxInFlight, cfg.queueDepth),
		mux:       http.NewServeMux(),
		cfg:       cfg,
		reg:       reg,
		slow:      trace.NewSlowLog(cfg.slowLogSize, cfg.slowThreshold),
		stmts:     stmts,

		requests: reg.Counter(prefix+"_requests_total", "HTTP requests received"),
		queries:  reg.Counter(prefix+"_queries_total", "queries executed (incl. batch members)"),
		batches:  reg.Counter(prefix+"_batches_total", "batch requests executed"),
		applies:  reg.Counter(prefix+"_applies_total", "apply/compact operations"),
		shed:     reg.Counter(prefix+"_shed_total", "requests shed with 429 by admission control"),
		errors:   reg.Counter(prefix+"_errors_total", "requests answered with a non-2xx status"),
		rows:     reg.Counter(prefix+"_rows_total", "result rows returned"),
		draining: reg.Gauge(prefix+"_draining", "1 while the instance is draining for shutdown"),
		latency:  reg.Histogram(prefix+"_request_seconds", "request latency", metrics.DefLatencyBuckets),
	}
	bi := buildinfo.Get()
	reg.InfoGauge("dualsim_build_info", "build metadata of the serving binary", map[string]string{
		"version": bi.Version, "revision": bi.Revision, "goversion": bi.GoVersion,
	})
	reg.GaugeFunc(prefix+"_in_flight", "requests currently executing", func() float64 {
		return float64(c.admit.InFlight())
	})
	reg.GaugeFunc(prefix+"_queued", "requests waiting for an execution slot", func() float64 {
		return float64(c.admit.Queued())
	})

	c.mux.HandleFunc("POST /v1/query", c.handleQuery)
	c.mux.HandleFunc("POST /v1/batch", c.handleBatch)
	c.mux.HandleFunc("POST /v1/apply", c.handleApply)
	c.mux.HandleFunc("GET /v1/snapshot", c.handleSnapshot)
	c.mux.HandleFunc("GET /v1/debug/slow", c.handleSlow)
	c.mux.HandleFunc("GET /v1/debug/statements", c.handleStatements)
	c.mux.HandleFunc("GET /healthz", c.handleHealth)
	c.mux.HandleFunc("GET /readyz", c.handleReady)
	c.mux.HandleFunc("GET /metrics", c.handleMetrics)
	return c
}

// Handle mounts a backend-specific route beside the protocol's own.
func (c *Core) Handle(pattern string, h http.HandlerFunc) { c.mux.HandleFunc(pattern, h) }

// Handler returns the HTTP handler tree.
func (c *Core) Handler() http.Handler { return c }

// Registry returns the metrics registry (shared when WithRegistry was
// given).
func (c *Core) Registry() *metrics.Registry { return c.reg }

// StartDrain flips the instance into draining mode: /readyz answers 503
// so load balancers and the cluster router stop routing here, while
// in-flight and follow-up requests keep being served until the HTTP
// server shuts down — /healthz stays 200 the whole time, because the
// process is alive and draining is healthy behaviour. Called when a
// termination signal arrives, before http.Server.Shutdown drains the
// connections.
func (c *Core) StartDrain() { c.draining.Set(1) }

// ServeHTTP implements http.Handler.
func (c *Core) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.requests.Inc()
	start := time.Now()
	c.mux.ServeHTTP(w, r)
	c.latency.Observe(time.Since(start).Seconds())
}

// ---------------------------------------------------------------------------
// Handlers

func (c *Core) handleQuery(w http.ResponseWriter, r *http.Request) {
	// Admission runs before the body is even decoded: a shed request
	// must cost near-nothing, and the slot covers all of the request's
	// work (decode included), so overload cannot buy unbounded decode
	// CPU either.
	release, ok := c.admitOr429(w, r)
	if !ok {
		// Attribute the rejection to its statement: admission protects
		// execution capacity, and the statistics table should show who
		// is being shed.
		c.recordShedStatement(r)
		return
	}
	defer release()
	var req wire.QueryRequest
	if err := decodeBody(w, r, &req); err != nil {
		c.FailExec(w, err)
		return
	}
	if strings.TrimSpace(req.Query) == "" {
		c.Fail(w, http.StatusBadRequest, "empty query")
		return
	}
	c.queries.Inc()

	ctx, cancel := c.requestContext(r, req.TimeoutMs)
	defer cancel()

	if mode := explainMode(r, req); mode != "" {
		c.handleExplain(ctx, w, req.Query, mode)
		return
	}

	// Tracing: explicit requests get the span tree back; an enabled
	// slow-query log traces every request internally so slow entries
	// carry one, but only explicit requests see it in the response.
	wantTrace, tp := traceRequested(r, req.Trace)
	var tr *trace.Trace
	if wantTrace || c.slow.Enabled() {
		ctx, tr = startTrace(ctx, w, tp, c.querySpan)
	}
	start := time.Now()

	cur, err := c.backend.Query(ctx, req.Query)
	if err != nil {
		c.recordStatement(req.Query, nil, time.Since(start), err)
		c.FailExec(w, err)
		return
	}
	defer cur.Close()

	// One cursor, two encoders: NDJSON puts the header (and the first
	// rows) on the wire while later rows are still being computed; the
	// buffered envelope collects them.
	var enc rowEncoder = &envelopeEncoder{c: c, w: w}
	if wantsStream(r, req) {
		enc = &ndjsonEncoder{w: w}
	}
	if enc.begin(cur.Vars(), cur.Epoch()) != nil {
		return // client gone; nothing to salvage mid-stream
	}
	n, truncated, werr := pump(cur, req.Limit, enc.row)
	if werr != nil {
		return
	}
	if err := cur.Err(); err != nil {
		c.recordStatement(req.Query, cur.Stats(), time.Since(start), err)
		enc.abort(err)
		return
	}
	cur.Close()
	stats, d := cur.Stats(), time.Since(start)
	c.recordStatement(req.Query, stats, d, nil)
	c.finishTrace(tr, wantTrace, stats, req.Query, d)
	c.rows.Add(int64(n))
	enc.end(stats, n, truncated)
}

// pump pulls rows off cur into emit until the cursor is exhausted, emit
// fails, or limit rows went out (0: unbounded). truncated reports that
// a row past the limit existed; the peek proves it, the row is dropped.
func pump(cur Cursor, limit int, emit func(Cursor) error) (n int, truncated bool, err error) {
	for cur.Next() {
		if limit > 0 && n >= limit {
			return n, true, nil
		}
		if err := emit(cur); err != nil {
			return n, false, err
		}
		n++
	}
	return n, false, nil
}

// rowEncoder is one of the two /v1/query response shapes.
type rowEncoder interface {
	begin(vars []string, epoch uint64) error
	// row encodes cur's current row.
	row(cur Cursor) error
	// abort reports an execution that died after begin.
	abort(err error)
	end(stats *dualsim.ExecStats, n int, truncated bool)
}

// ndjsonEncoder writes the streamed shape: header first (flushed before
// any row is computed), then row events with incremental flushes, then
// the stats trailer — or an error event if the execution dies
// mid-stream, after the 200 was committed. Events collect in buf and
// reach the ResponseWriter once per flush point.
type ndjsonEncoder struct {
	w     http.ResponseWriter
	buf   []byte
	epoch uint64
	n     int
}

// flush hands the pending events to the connection.
func (e *ndjsonEncoder) flush() error {
	_, err := e.w.Write(e.buf)
	e.buf = e.buf[:0]
	if f, ok := e.w.(http.Flusher); ok {
		f.Flush()
	}
	return err
}

// event appends one of the once-per-response events (header, stats,
// error) and flushes.
func (e *ndjsonEncoder) event(ev wire.Event) error {
	line, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	e.buf = append(append(e.buf, line...), '\n')
	return e.flush()
}

func (e *ndjsonEncoder) begin(vars []string, epoch uint64) error {
	e.epoch = epoch
	e.w.Header().Set("X-Dualsim-Epoch", strconv.FormatUint(epoch, 10))
	e.w.Header().Set("Content-Type", wire.ContentTypeNDJSON)
	e.w.WriteHeader(http.StatusOK)
	return e.event(wire.Event{Kind: wire.EventHeader, Vars: vars, Epoch: epoch})
}

//dualsim:hotpath
func (e *ndjsonEncoder) row(cur Cursor) error {
	e.buf = wire.AppendRowEvent(e.buf, e.epoch, cur)
	if e.n++; e.n == 1 || e.n%streamChunk == 0 || len(e.buf) >= streamChunkBytes {
		return e.flush()
	}
	return nil
}

func (e *ndjsonEncoder) abort(err error) {
	// The status line is long gone; the in-band error event is the only
	// way to tell the client the stream is dead, not complete.
	_ = e.event(wire.Event{Kind: wire.EventError, Error: err.Error(), Epoch: e.epoch})
}

func (e *ndjsonEncoder) end(stats *dualsim.ExecStats, n int, truncated bool) {
	_ = e.event(wire.Event{Kind: wire.EventStats, Stats: stats, Rows: n, Truncated: truncated, Epoch: e.epoch})
}

// rawRows collects rows as the JSON array of their value arrays — the
// "rows" member of the buffered shapes, built by the same
// Cursor.AppendRow the stream's row events carry.
type rawRows []byte

func (r *rawRows) add(cur Cursor) error {
	sep := byte(',')
	if len(*r) == 0 {
		sep = '['
	}
	*r = cur.AppendRow(append(*r, sep))
	return nil
}

func (r rawRows) json() json.RawMessage {
	if len(r) == 0 {
		return json.RawMessage("[]")
	}
	return json.RawMessage(append(r, ']'))
}

// The buffered shapes with their rows already rendered: each embeds its
// wire type, whose own Rows the raw field shadows, so the two cannot
// drift apart.
//
//dualsim:wire
type (
	queryEnvelope struct {
		wire.QueryResponse
		Rows json.RawMessage `json:"rows"`
	}
	batchItem struct {
		wire.BatchItem
		Rows json.RawMessage `json:"rows,omitempty"`
	}
	batchEnvelope struct {
		Results []batchItem        `json:"results"`
		Stats   dualsim.BatchStats `json:"stats"`
	}
)

// envelopeEncoder collects the buffered shape; nothing is committed
// before end, so a failed execution still gets its own status.
type envelopeEncoder struct {
	c    *Core
	w    http.ResponseWriter
	out  wire.QueryResponse
	rows rawRows
}

func (e *envelopeEncoder) begin(vars []string, epoch uint64) error {
	e.out = wire.QueryResponse{Vars: append([]string{}, vars...), Epoch: epoch}
	return nil
}

func (e *envelopeEncoder) row(cur Cursor) error { return e.rows.add(cur) }

func (e *envelopeEncoder) abort(err error) { e.c.FailExec(e.w, err) }

func (e *envelopeEncoder) end(stats *dualsim.ExecStats, _ int, truncated bool) {
	e.out.Stats, e.out.Truncated = stats, truncated
	e.w.Header().Set("X-Dualsim-Epoch", strconv.FormatUint(e.out.Epoch, 10))
	e.c.WriteJSON(e.w, http.StatusOK, &queryEnvelope{QueryResponse: e.out, Rows: e.rows.json()})
}

// handleExplain answers an EXPLAIN / EXPLAIN ANALYZE request: the
// compiled plan tree (with the executed counters when analyzing)
// instead of the result rows.
func (c *Core) handleExplain(ctx context.Context, w http.ResponseWriter, src, mode string) {
	if mode != "plan" && mode != "analyze" {
		c.Fail(w, http.StatusBadRequest, fmt.Sprintf("unknown explain mode %q (want plan or analyze)", mode))
		return
	}
	ex, err := c.backend.Explain(ctx, src, mode == "analyze")
	if err != nil {
		c.FailExec(w, err)
		return
	}
	w.Header().Set("X-Dualsim-Epoch", strconv.FormatUint(ex.Epoch, 10))
	c.WriteJSON(w, http.StatusOK, &wire.ExplainResponse{Explain: ex, Text: ex.Text()})
}

// startTrace opens a request's trace — continuing the caller's when tp
// carries a traceparent — installs its root span in ctx and announces
// the trace ID.
func startTrace(ctx context.Context, w http.ResponseWriter, tp, root string) (context.Context, *trace.Trace) {
	tr := trace.New(root)
	if tp != "" {
		tr = trace.Continue(tp, root)
	}
	w.Header().Set("X-Dualsim-Trace", tr.ID())
	return trace.ContextWithSpan(ctx, tr.Root()), tr
}

// finishTrace seals a successful query's trace: ends the root span,
// attaches the tree to the response stats when the client asked for it,
// and feeds the slow-query log.
func (c *Core) finishTrace(tr *trace.Trace, wantTrace bool, stats *dualsim.ExecStats, query string, d time.Duration) {
	if tr == nil {
		return
	}
	tr.Root().End()
	if wantTrace {
		stats.Trace = tr.Root()
	}
	recorded := c.slow.Observe(trace.Entry{
		Time:          time.Now(),
		TraceID:       tr.ID(),
		Query:         query,
		Fingerprint:   stats.Fingerprint,
		Duration:      d,
		Epoch:         stats.Epoch,
		Status:        http.StatusOK,
		PlanDecisions: stats.PlanDecisions,
		Trace:         tr.Root(),
	})
	if recorded {
		// Cross-link the statements table to the freshest slow capture of
		// this statement (the slow entry carries the fingerprint back).
		c.stmts.SetLastSlow(stats.Fingerprint, tr.ID())
	}
}

func (c *Core) handleBatch(w http.ResponseWriter, r *http.Request) {
	// One admission slot covers the whole batch (decode included): its
	// internal fan-out runs on the backend's own bounded worker pool, and
	// counting each member against maxInFlight would let one caller
	// starve the server.
	release, ok := c.admitOr429(w, r)
	if !ok {
		return
	}
	defer release()
	var req wire.BatchRequest
	if err := decodeBody(w, r, &req); err != nil {
		c.FailExec(w, err)
		return
	}
	if len(req.Queries) == 0 {
		c.Fail(w, http.StatusBadRequest, "empty batch")
		return
	}
	c.batches.Inc()
	c.queries.Add(int64(len(req.Queries)))

	ctx, cancel := c.requestContext(r, req.TimeoutMs)
	defer cancel()

	var tr *trace.Trace
	if wantTrace, tp := traceRequested(r, req.Trace); wantTrace {
		ctx, tr = startTrace(ctx, w, tp, "batch")
	}
	start := time.Now()
	out, err := c.backend.Batch(ctx, req.Queries, req.FailFast)
	if err != nil {
		c.FailExec(w, err)
		return
	}
	elapsed := time.Since(start)
	resp := batchEnvelope{Results: make([]batchItem, len(out))}
	summary := make([]dualsim.BatchResult, len(out))
	for i, res := range out {
		if res.Err != nil {
			// Reported in the item's error slot; the HTTP reply is still
			// 200, so errors_total (non-2xx responses) does not move.
			c.recordStatement(req.Queries[i], nil, 0, res.Err)
			resp.Results[i].Error = res.Err.Error()
			summary[i].Err = res.Err
			continue
		}
		item := &resp.Results[i]
		item.Vars, item.Epoch = res.Rows.Vars(), res.Rows.Epoch()
		var rows rawRows
		var n int
		n, item.Truncated, _ = pump(res.Rows, req.Limit, rows.add)
		item.Rows = rows.json()
		res.Rows.Close()
		item.Stats = res.Rows.Stats()
		c.recordStatement(req.Queries[i], item.Stats, item.Stats.Duration, nil)
		c.rows.Add(int64(n))
		summary[i].Stats = item.Stats
	}
	resp.Stats = dualsim.SummarizeBatch(summary, elapsed)
	if tr != nil {
		tr.Root().End()
		resp.Stats.Trace = tr.Root()
	}
	c.WriteJSON(w, http.StatusOK, &resp)
}

func (c *Core) handleApply(w http.ResponseWriter, r *http.Request) {
	c.Mutate(w, r, func(ctx context.Context) (any, uint64, error) {
		var req wire.ApplyRequest
		if err := decodeBody(w, r, &req); err != nil {
			return nil, 0, err
		}
		c.applies.Inc()
		toTriples := func(ws []wire.Triple, slot string) ([]dualsim.Triple, error) {
			out := make([]dualsim.Triple, len(ws))
			for i, t := range ws {
				if err := t.Validate(); err != nil {
					return nil, Errorf(http.StatusBadRequest, "%s[%d]: %v", slot, i, err)
				}
				out[i] = t.ToTriple()
			}
			return out, nil
		}
		var d dualsim.Delta
		var err error
		if d.Adds, err = toTriples(req.Adds, "adds"); err != nil {
			return nil, 0, err
		}
		if d.Dels, err = toTriples(req.Dels, "dels"); err != nil {
			return nil, 0, err
		}
		var tr *trace.Trace
		if wantTrace, tp := traceRequested(r, false); wantTrace {
			ctx, tr = startTrace(ctx, w, tp, "apply")
		}
		body, epoch, err := c.backend.Apply(ctx, d)
		if tr != nil {
			tr.Root().End()
		}
		return body, epoch, err
	})
}

func (c *Core) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := c.requestContext(r, 0)
	defer cancel()
	out, err := c.backend.Snapshot(ctx)
	if err != nil {
		c.FailExec(w, err)
		return
	}
	w.Header().Set("X-Dualsim-Epoch", strconv.FormatUint(out.Epoch, 10))
	c.WriteJSON(w, http.StatusOK, out)
}

// handleHealth is pure liveness: it answers 200 as long as the process
// can serve at all, draining included. Use /readyz to decide whether to
// route work here.
func (c *Core) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if c.draining.Value() != 0 {
		status = "draining"
	}
	bi := buildinfo.Get()
	c.WriteJSON(w, http.StatusOK, &wire.HealthResponse{
		Status: status, Epoch: c.backend.Epoch(),
		Version: bi.Version, Revision: bi.Revision,
	})
}

// handleSlow serves the slow-query ring, newest first. An empty body
// with threshold 0 means the log is disabled (-slowlog 0, the default).
func (c *Core) handleSlow(w http.ResponseWriter, r *http.Request) {
	c.WriteJSON(w, http.StatusOK, &wire.SlowLogResponse{
		ThresholdMs: float64(c.slow.Threshold()) / float64(time.Millisecond),
		Total:       c.slow.Total(),
		Entries:     c.slow.Entries(),
	})
}

// readyErr resolves the readiness state: draining wins (the instance is
// leaving), then the configured readiness hook (a replica's
// bootstrap/lag check), then the backend's own view.
func (c *Core) readyErr() error {
	if c.draining.Value() != 0 {
		return errDraining
	}
	if c.cfg.readiness != nil {
		if err := c.cfg.readiness(); err != nil {
			return err
		}
	}
	return c.backend.Ready()
}

var errDraining = errors.New("draining")

// handleReady is the routing decision: 200 only when the instance wants
// traffic. Draining flips it to 503 before connections close, giving
// load balancers a window to move on; a replica's readiness hook keeps
// it 503 while bootstrapping or lagging beyond its staleness bound.
func (c *Core) handleReady(w http.ResponseWriter, r *http.Request) {
	if err := c.readyErr(); err != nil {
		status := "notready"
		if errors.Is(err, errDraining) {
			status = "draining"
		}
		// Not counted in errors_total: a not-ready probe answer is the
		// endpoint working as designed, not a failed request.
		c.WriteJSON(w, http.StatusServiceUnavailable, &wire.HealthResponse{
			Status: status, Epoch: c.backend.Epoch(), Reason: err.Error(),
		})
		return
	}
	c.WriteJSON(w, http.StatusOK, &wire.HealthResponse{Status: "ready", Epoch: c.backend.Epoch()})
}

func (c *Core) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = c.reg.WriteTo(w)
}

// ---------------------------------------------------------------------------
// Plumbing

// Mutate serves one mutating request. A read-only (replica) instance
// refuses with 403 before admission — the refusal must not consume an
// execution slot; otherwise op runs under an admission slot and the
// request's execution context, and its body is answered under the
// epoch it produced. An error from op picks the reply as in FailExec.
func (c *Core) Mutate(w http.ResponseWriter, r *http.Request, op func(ctx context.Context) (body any, epoch uint64, err error)) {
	if c.cfg.readOnly {
		c.Fail(w, http.StatusForbidden, "read-only replica: writes go to the primary (or arrive via the replication stream)")
		return
	}
	release, ok := c.admitOr429(w, r)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := c.requestContext(r, 0)
	defer cancel()
	body, epoch, err := op(ctx)
	if err != nil {
		c.FailExec(w, err)
		return
	}
	w.Header().Set("X-Dualsim-Epoch", strconv.FormatUint(epoch, 10))
	c.WriteJSON(w, http.StatusOK, body)
}

// admitOr429 passes the request through admission control; on shedding
// it writes the 429 (with Retry-After) or the client-abandonment status
// and reports false.
func (c *Core) admitOr429(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	release, queued, err := c.admit.acquire(r.Context())
	switch {
	case err == nil:
		if queued {
			// Surfaced for the access log and latency forensics: the
			// request waited for an execution slot before running.
			w.Header().Set("X-Dualsim-Queued", "1")
		}
		return release, true
	case errors.Is(err, ErrOverloaded):
		c.shed.Inc()
		c.errors.Inc()
		secs := int64(c.cfg.retryAfter.Round(time.Second) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		c.WriteJSON(w, http.StatusTooManyRequests, &wire.ErrorResponse{
			Error:        "overloaded: in-flight and queue limits reached",
			RetryAfterMs: c.cfg.retryAfter.Milliseconds(),
		})
		return nil, false
	default: // the client went away while queued; Fail counts the error
		c.Fail(w, statusClientClosedRequest, "client cancelled while queued")
		return nil, false
	}
}

// statusClientClosedRequest is nginx's conventional status for a client
// that disconnected before the response; no standard code exists.
const statusClientClosedRequest = 499

// requestContext derives the execution context: the HTTP request context
// (client disconnect cancels it) bounded by the request's timeoutMs or
// the configured default.
func (c *Core) requestContext(r *http.Request, timeoutMs int64) (context.Context, context.CancelFunc) {
	d := c.cfg.defaultTimeout
	if timeoutMs > 0 {
		d = time.Duration(timeoutMs) * time.Millisecond
	}
	if d > 0 {
		return context.WithTimeout(r.Context(), d)
	}
	return context.WithCancel(r.Context())
}

// decodeBody decodes a JSON body; the error says 400 for malformed
// input and 413 when the body exceeds maxBodyBytes (so bulk-apply
// callers know to chunk the delta rather than fix their JSON).
func decodeBody(w http.ResponseWriter, r *http.Request, into any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return Errorf(http.StatusRequestEntityTooLarge, "request body exceeds %d bytes; split the request", tooLarge.Limit)
		}
		return Errorf(http.StatusBadRequest, "malformed request body: %v", err)
	}
	return nil
}

// FailExec maps an execution error onto an HTTP status: a backend
// *Error names its own; deadline → 504, client disconnect → 499, closed
// session → 503, memory budget → 413, anything else (parse, plan,
// malformed delta — all induced by the request) → 400.
func (c *Core) FailExec(w http.ResponseWriter, err error) {
	var be *Error
	switch {
	case errors.As(err, &be):
		c.Fail(w, be.Status, be.Msg)
	case errors.Is(err, context.DeadlineExceeded):
		c.Fail(w, http.StatusGatewayTimeout, "deadline exceeded: "+err.Error())
	case errors.Is(err, context.Canceled):
		c.errors.Inc()
		// The client is gone; record the status for logs, skip the body.
		w.WriteHeader(statusClientClosedRequest)
	case errors.Is(err, dualsim.ErrClosed):
		c.Fail(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, dualsim.ErrQueryMemoryExceeded):
		// The query's buffered state outgrew the session's memory budget
		// (-maxquerymem): the payload the server would have to hold is too
		// large, the 413 of executions. The daemon keeps serving.
		c.Fail(w, http.StatusRequestEntityTooLarge, err.Error())
	default:
		c.Fail(w, http.StatusBadRequest, err.Error())
	}
}

// Fail answers with an ErrorResponse and counts the failed request.
func (c *Core) Fail(w http.ResponseWriter, status int, msg string) {
	if status >= 400 {
		c.errors.Inc()
	}
	c.WriteJSON(w, status, &wire.ErrorResponse{Error: msg})
}

// WriteJSON answers with body as one JSON document and a newline.
func (c *Core) WriteJSON(w http.ResponseWriter, status int, body any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	// Rows the codec rendered pass through as they are; escaping their
	// '<' and '>' again would only put the bytes back.
	enc.SetEscapeHTML(false)
	if err := enc.Encode(body); err != nil { // a wire type failed to marshal: a programming error
		http.Error(w, `{"error":"internal: response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	if w.Header().Get("Content-Type") == "" {
		w.Header().Set("Content-Type", wire.ContentTypeJSON)
	}
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

// wantsStream resolves the three ways a client can request NDJSON.
func wantsStream(r *http.Request, req wire.QueryRequest) bool {
	if req.Stream {
		return true
	}
	if v := r.URL.Query().Get("stream"); v == "1" || v == "true" {
		return true
	}
	return strings.Contains(r.Header.Get("Accept"), wire.ContentTypeNDJSON)
}

// traceRequested resolves the three ways a client can request a trace:
// the request body's trace flag, the ?trace=1 URL parameter, or a valid
// W3C traceparent header. tp is the traceparent to continue from, empty
// when the trace should mint a fresh ID.
func traceRequested(r *http.Request, reqFlag bool) (want bool, tp string) {
	if h := r.Header.Get("traceparent"); h != "" {
		if _, ok := trace.ParseTraceparent(h); ok {
			return true, h
		}
	}
	if reqFlag {
		return true, ""
	}
	if v := r.URL.Query().Get("trace"); v == "1" || v == "true" {
		return true, ""
	}
	return false, ""
}

// explainMode resolves an EXPLAIN request: the body's explain field or
// the ?explain=plan|analyze URL parameter ("1"/"true" mean "plan").
func explainMode(r *http.Request, req wire.QueryRequest) string {
	mode := req.Explain
	if v := r.URL.Query().Get("explain"); v != "" {
		mode = v
	}
	if mode == "1" || mode == "true" {
		mode = "plan"
	}
	return mode
}
