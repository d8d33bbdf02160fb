// Package trace is the zero-dependency, request-scoped span-tree tracer
// behind a query's "trace" flag, EXPLAIN ANALYZE and the slow-query log.
//
// A Trace carries a 128-bit trace ID and a tree of Spans: monotonic
// start offsets, durations, string attributes and integer counters. The
// design goal is that *disabled tracing costs nothing*: a trace travels
// inside a context.Context, SpanFromContext returns nil when none was
// installed, and every Span/Trace method is nil-receiver-safe — the
// instrumented code calls them unconditionally and the disabled path
// adds zero allocations (guarded by an AllocsPerRun test at the root).
//
// Distribution follows the W3C Trace Context shape: the router injects a
// `traceparent` header (00-<32 hex trace id>-<16 hex span id>-01) on
// every scatter-gather shard call, the shard daemon Continues the trace
// under the same ID, ships its subtree back inside the ExecStats trailer,
// and the router Attaches it under its fan-out span — one tree shows the
// whole cluster request. Subtree roots carry TraceID so a consumer can
// verify the stitch.
package trace

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"
)

// Span is one timed node of a trace tree. The JSON tags are wire-stable:
// spans travel inside ExecStats ("trace") and the slow-query log.
//
//dualsim:wire
type Span struct {
	// TraceID is set on the root span of every subtree that crosses a
	// process boundary, so stitched shard subtrees prove they belong to
	// the same distributed trace.
	TraceID string `json:"traceID,omitempty"`
	Name    string `json:"name"`
	// Start is the span's start offset from its trace root, measured on
	// the machine that produced the span (remote subtrees keep offsets
	// relative to their own root — clocks are never compared across
	// machines). Synthesized spans grafted after the fact report 0.
	Start time.Duration `json:"start,omitempty"`
	// Duration is the span's wall-clock time (inclusive of children).
	Duration time.Duration `json:"duration"`
	// Attrs are low-cardinality string attributes (shard, mode, detail…).
	Attrs map[string]string `json:"attrs,omitempty"`
	// Counters are integer measurements (rows, nextCalls, walBytes…).
	// They are set once when the instrumented section finishes — never
	// bumped per row, so span maintenance stays off the hot path.
	Counters map[string]int64 `json:"counters,omitempty"`
	Children []*Span          `json:"children,omitempty"`

	tr    *Trace    // nil on deserialized subtrees
	began time.Time // monotonic start; zero on synthesized spans
}

// Trace is one request's span tree plus its 128-bit identity. Spans of
// one trace may be created from concurrent goroutines (the router's
// fan-out): tree mutations are serialized on the trace's mutex.
type Trace struct {
	mu     sync.Mutex
	id     string // 32 hex chars
	spanID string // 16 hex chars, the root span's W3C span-id
	start  time.Time
	root   *Span
}

// New starts a trace with a fresh random 128-bit ID and a live root span.
func New(rootName string) *Trace {
	return start(randHex(16), rootName)
}

// Continue starts a trace adopting the trace ID of a W3C traceparent
// header, so a shard daemon's subtree joins the router's distributed
// trace. An absent or malformed header falls back to a fresh ID.
func Continue(traceparent, rootName string) *Trace {
	if id, ok := ParseTraceparent(traceparent); ok {
		return start(id, rootName)
	}
	return New(rootName)
}

func start(id, rootName string) *Trace {
	t := &Trace{id: id, spanID: randHex(8), start: time.Now()}
	t.root = &Span{TraceID: id, Name: rootName, tr: t, began: t.start}
	return t
}

// ID returns the 32-hex trace ID ("" on a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Root returns the root span (nil on a nil trace).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Traceparent renders the W3C header value propagated to shards:
// version 00, this trace's ID, the root span as parent, sampled flag.
//
//dualsim:hotpath
func (t *Trace) Traceparent() string {
	if t == nil {
		return ""
	}
	return "00-" + t.id + "-" + t.spanID + "-01"
}

// ParseTraceparent extracts the trace ID of a W3C traceparent header.
// Shape and hex-validity are checked, and the spec's invalid values
// refused: version ff, an all-zero trace ID and an all-zero parent ID.
// Other unknown versions are accepted as long as the field widths match
// (per the spec's forward-compat rule).
func ParseTraceparent(h string) (traceID string, ok bool) {
	// 00-xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx-yyyyyyyyyyyyyyyy-zz
	if len(h) != 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return "", false
	}
	version, id, parent := h[0:2], h[3:35], h[36:52]
	if !isHex(version) || !isHex(id) || !isHex(parent) || !isHex(h[53:55]) {
		return "", false
	}
	if version == "ff" || id == "00000000000000000000000000000000" || parent == "0000000000000000" {
		return "", false
	}
	return id, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func randHex(n int) string {
	buf := make([]byte, n)
	// crypto/rand failure is effectively impossible on supported
	// platforms; a zero ID on that path still produces a valid trace.
	rand.Read(buf)
	return hex.EncodeToString(buf)
}

// ---------------------------------------------------------------------------
// Span construction. Every method is nil-receiver-safe: instrumented
// code calls them unconditionally and pays nothing when tracing is off.

// StartChild opens a live child span clocked from now.
//
//dualsim:hotpath
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	now := time.Now()
	c := &Span{Name: name, tr: s.tr, began: now}
	if s.tr != nil {
		c.Start = now.Sub(s.tr.start)
	}
	s.attach(c)
	return c
}

// End stamps a live span's duration. Synthesized spans are unaffected.
//
//dualsim:hotpath
func (s *Span) End() {
	if s == nil || s.began.IsZero() {
		return
	}
	s.lock()
	s.Duration = time.Since(s.began)
	s.unlock()
}

// Record grafts a completed child span with an externally measured
// duration — for measurements taken without a live span (parse/plan
// times recorded at Prepare, per-operator times from the executor).
//
//dualsim:hotpath
func (s *Span) Record(name string, d time.Duration) *Span {
	if s == nil {
		return nil
	}
	c := &Span{Name: name, Duration: d, tr: s.tr}
	s.attach(c)
	return c
}

// Attach stitches an existing subtree (typically deserialized from a
// shard response) under this span.
//
//dualsim:hotpath
func (s *Span) Attach(child *Span) {
	if s == nil || child == nil {
		return
	}
	s.attach(child)
}

//dualsim:hotpath
func (s *Span) attach(child *Span) {
	s.lock()
	s.Children = append(s.Children, child)
	s.unlock()
}

// SetAttr records a string attribute.
//
//dualsim:hotpath
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.lock()
	if s.Attrs == nil {
		s.Attrs = make(map[string]string, 4)
	}
	s.Attrs[k] = v
	s.unlock()
}

// Add accumulates into a named counter.
//
//dualsim:hotpath
func (s *Span) Add(name string, n int64) {
	if s == nil {
		return
	}
	s.lock()
	if s.Counters == nil {
		s.Counters = make(map[string]int64, 4)
	}
	s.Counters[name] += n
	s.unlock()
}

//dualsim:hotpath
func (s *Span) lock() {
	if s.tr != nil {
		s.tr.mu.Lock()
	}
}

//dualsim:hotpath
func (s *Span) unlock() {
	if s.tr != nil {
		s.tr.mu.Unlock()
	}
}

// Traceparent renders the W3C header value of the span's trace ("" on a
// nil or deserialized span) — what the router injects on shard calls
// made while a fan-out span is current.
//
//dualsim:hotpath
func (s *Span) Traceparent() string {
	if s == nil || s.tr == nil {
		return ""
	}
	return s.tr.Traceparent()
}

// Find returns the first span named name in a pre-order walk of the
// subtree (including s itself), or nil — a test and tooling helper.
func (s *Span) Find(name string) *Span {
	if s == nil {
		return nil
	}
	if s.Name == name {
		return s
	}
	for _, c := range s.Children {
		if m := c.Find(name); m != nil {
			return m
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Context plumbing. The current parent span rides in the context; the
// lookup allocates nothing, so the disabled path stays allocation-free.

type ctxKey struct{}

// ContextWithSpan installs sp as the context's current span.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, ctxKey{}, sp)
}

// SpanFromContext returns the context's current span, nil when tracing
// is not enabled for this request.
//
//dualsim:hotpath
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}
