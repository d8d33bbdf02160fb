// Package wire defines the JSON protocol of the dualsimd serving
// subsystem, shared by internal/server (the HTTP front end) and the
// public client package so the two cannot drift.
//
// A query is answered with one shape, an NDJSON stream (Content-Type
// application/x-ndjson): one JSON value per line — a "header" Event
// first (vars + epoch), then the solution mappings in chunks, then a
// final "stats" Event, or an "error" Event if execution fails after the
// HTTP status was committed (one that fails before its first row gets
// a status and an ErrorResponse instead). The mappings are a term table
// (row.go): a term line, one JSON string, defines the next term number;
// a row line, a JSON array, names one term number or null per variable.
// Rows carry no epoch. The codec in row.go writes and reads those
// lines; the events are encoding/json.
//
// Every stream is epoch-tagged: the header carries the store epoch the
// execution answered from, every row answers from it, and the stats
// trailer repeats it, so a client can verify MVCC consistency (header
// epoch == stats epoch) across concurrent Apply traffic.
package wire

import (
	"fmt"

	"dualsim"
	"dualsim/internal/stats"
	"dualsim/internal/trace"
)

// Content types: every reply body is JSON, except a query's stream.
const (
	ContentTypeJSON   = "application/json"
	ContentTypeNDJSON = "application/x-ndjson"
)

// QueryRequest is the body of POST /v1/query.
type QueryRequest struct {
	// Query is the SPARQL fragment source text.
	Query string `json:"query"`
	// TimeoutMs, when > 0, bounds the execution: the server derives a
	// context deadline and aborts the solver/engines when it passes
	// (HTTP 504).
	TimeoutMs int64 `json:"timeoutMs,omitempty"`
	// Limit, when > 0, truncates the response to that many rows (the
	// execution itself is not bounded; dual simulation prunes globally).
	Limit int `json:"limit,omitempty"`
	// Trace requests the execution's span tree in the stats trailer
	// (ExecStats.Trace). A W3C traceparent header does the same, and
	// makes the server adopt the caller's trace ID.
	Trace bool `json:"trace,omitempty"`
	// Explain, instead of executing, returns the compiled plan
	// (ExplainResponse): "plan" renders without executing, "analyze"
	// executes with per-operator timing.
	Explain string `json:"explain,omitempty"`
}

// Triple is the wire form of one RDF triple. O and Lit are mutually
// exclusive object encodings: O an IRI, Lit a literal value.
type Triple struct {
	S   string `json:"s"`
	P   string `json:"p"`
	O   string `json:"o,omitempty"`
	Lit string `json:"lit,omitempty"`
	// IsLit disambiguates an empty-string literal from an IRI object.
	IsLit bool `json:"isLit,omitempty"`
}

// FromTriple converts a decoded triple to wire form.
func FromTriple(t dualsim.Triple) Triple {
	w := Triple{S: t.S.Value, P: t.P}
	if t.O.IsLiteral() {
		w.Lit, w.IsLit = t.O.Value, true
	} else {
		w.O = t.O.Value
	}
	return w
}

// Validate rejects a triple that sets both object encodings — silently
// preferring one would drop the other half of the caller's intent.
// Deeper well-formedness (empty subject/predicate, …) is checked by the
// engine's rdf.Triple.Validate at Apply time.
func (w Triple) Validate() error {
	if w.O != "" && (w.IsLit || w.Lit != "") {
		return fmt.Errorf("wire: triple (%s, %s) sets both o and lit; the object encodings are mutually exclusive", w.S, w.P)
	}
	return nil
}

// ToTriple converts a wire triple back to the engine form (see Validate
// for the ambiguous case).
func (w Triple) ToTriple() dualsim.Triple {
	if w.IsLit || w.Lit != "" {
		return dualsim.TL(w.S, w.P, w.Lit)
	}
	return dualsim.T(w.S, w.P, w.O)
}

// ApplyRequest is the body of POST /v1/apply. Dels are applied before
// Adds, atomically, exactly like dualsim.Delta.
type ApplyRequest struct {
	Adds []Triple `json:"adds,omitempty"`
	Dels []Triple `json:"dels,omitempty"`
}

// Event is one object line of a streamed query response: the header,
// the stats trailer or an error; the rows between them are term and
// row lines (row.go). Kind selects which of the other fields are set.
type Event struct {
	// Kind is "header", "stats" or "error".
	Kind string `json:"kind"`
	// Vars (header) are the result columns, in row order.
	Vars []string `json:"vars,omitempty"`
	// Epoch is the store epoch the execution answers from. Every event
	// of one stream carries the same value (epoch 0 is meaningful, so
	// the field is never omitted), and every row between them answers
	// from it: a consumer detects a torn stream by comparing the
	// header's epoch with the trailer's.
	Epoch uint64 `json:"epoch"`
	// Stats (stats) is the execution's ExecStats; Rows the total row
	// count, Truncated whether a Limit cut the stream short.
	Stats     *dualsim.ExecStats `json:"stats,omitempty"`
	Rows      int                `json:"rows,omitempty"`
	Truncated bool               `json:"truncated,omitempty"`
	// Error (error) is the failure message of a stream that died after
	// the 200 status was committed: rows are computed incrementally off
	// the executor's iterator tree, so a timeout or cancellation can
	// strike mid-stream — the error event replaces the stats trailer
	// and tells the client the stream is dead, not complete.
	Error string `json:"error,omitempty"`
}

// Event kinds.
const (
	EventHeader = "header"
	EventStats  = "stats"
	EventError  = "error"
)

// ApplyResponse is the body of a POST /v1/apply or /v1/compact reply.
type ApplyResponse struct {
	Stats dualsim.ApplyStats `json:"stats"`
}

// CheckpointResponse is the body of a POST /v1/checkpoint reply: the
// durable session rolled its WAL into a fresh on-disk snapshot.
type CheckpointResponse struct {
	Stats dualsim.CheckpointStats `json:"stats"`
}

// SnapshotResponse is the body of GET /v1/snapshot: the current epoch
// and store shape, for clients tracking MVCC progress.
type SnapshotResponse struct {
	Epoch       uint64 `json:"epoch"`
	Triples     int    `json:"triples"`
	Nodes       int    `json:"nodes"`
	Predicates  int    `json:"predicates"`
	OverlaySize int    `json:"overlaySize"`
	Compactions int    `json:"compactions"`
}

// HealthResponse is the body of GET /healthz (liveness) and
// GET /readyz (readiness). Status is "ok"/"ready" on 200; on a 503
// readiness reply it names why the instance should not be routed to
// ("draining", "notready"), with Reason carrying detail.
type HealthResponse struct {
	Status string `json:"status"`
	Epoch  uint64 `json:"epoch"`
	Reason string `json:"reason,omitempty"`
	// Version and Revision identify the build (module version and VCS
	// revision), from runtime/debug.ReadBuildInfo.
	Version  string `json:"version,omitempty"`
	Revision string `json:"revision,omitempty"`
}

// EndpointStatus is the router's live view of one shard endpoint.
type EndpointStatus struct {
	URL  string `json:"url"`
	Role string `json:"role"` // "primary" or "replica"
	// Up reports the endpoint answered its last probe at all; Ready
	// that it answered 200 on /readyz (bootstrapped, within the
	// staleness bound, not draining).
	Up    bool   `json:"up"`
	Ready bool   `json:"ready"`
	Epoch uint64 `json:"epoch"`
	// LatencyMs is the last probe's round-trip time.
	LatencyMs float64 `json:"latencyMs"`
	Error     string  `json:"error,omitempty"`
}

// ShardStatus groups a shard's endpoints (primary first).
type ShardStatus struct {
	Shard     int              `json:"shard"`
	Endpoints []EndpointStatus `json:"endpoints"`
}

// ClusterStatusResponse is the body of the router's GET /v1/cluster.
type ClusterStatusResponse struct {
	Shards int           `json:"shards"`
	Status []ShardStatus `json:"status"`
}

// ShardApply is one shard's slice of a routed apply.
type ShardApply struct {
	Shard int                `json:"shard"`
	Stats dualsim.ApplyStats `json:"stats"`
}

// ClusterApplyResponse is the body of the router's POST /v1/apply: the
// delta was split by predicate placement and applied per shard. The
// split is NOT atomic across shards — each shard's slice is atomic and
// epoch-bumped on its own counter; Results reports every slice.
type ClusterApplyResponse struct {
	Results []ShardApply `json:"results"`
}

// ExplainResponse is the body of a query request with Explain set: the
// compiled plan, optionally executed.
type ExplainResponse struct {
	Explain *dualsim.Explain `json:"explain"`
	// Text is the deterministic indented render of the plan tree.
	Text string `json:"text"`
}

// SlowLogResponse is the body of GET /v1/debug/slow: the retained
// slow-query entries, newest first.
type SlowLogResponse struct {
	// ThresholdMs is the configured slow threshold.
	ThresholdMs float64 `json:"thresholdMs"`
	// Total counts every request that crossed the threshold since boot
	// (entries beyond the ring capacity are dropped oldest-first).
	Total   int64         `json:"total"`
	Entries []trace.Entry `json:"entries"`
}

// StatementsResponse is the body of GET /v1/debug/statements: the
// workload statistics rows, ordered by total execution time descending —
// pg_stat_statements for dualsim. On the router the rows are the
// fingerprint-keyed merge of the tables of every live endpoint of every
// shard, and Shards counts the shards; on a daemon Shards is 0.
type StatementsResponse struct {
	// Statements are the per-normalized-statement aggregates.
	Statements []stats.Statement `json:"statements"`
	// Tracked and Evicted size the store: distinct statements currently
	// held, and how many were LRU-evicted since boot (or the last reset).
	Tracked int   `json:"tracked"`
	Evicted int64 `json:"evicted,omitempty"`
	// LatencyBounds are the histogram bucket upper bounds (seconds)
	// behind each row's latencyBuckets counts (which carry one extra
	// +Inf bucket).
	LatencyBounds []float64 `json:"latencyBounds,omitempty"`
	// Shards is the number of shards whose tables were merged into this
	// view (router only).
	Shards int `json:"shards,omitempty"`
}

// ErrorResponse is the body of every non-2xx reply.
type ErrorResponse struct {
	Error string `json:"error"`
	// RetryAfterMs mirrors the Retry-After header on 429 replies.
	RetryAfterMs int64 `json:"retryAfterMs,omitempty"`
}
