package trace

import (
	"sync"
	"time"
)

// Entry is one captured slow query: enough to reconstruct what ran,
// where the time went and against which snapshot, without grepping logs.
// JSON tags are wire-stable (GET /v1/debug/slow).
//
//dualsim:wire
type Entry struct {
	// Time is the wall-clock completion time of the request.
	Time time.Time `json:"time"`
	// TraceID identifies the request's distributed trace.
	TraceID string `json:"traceID,omitempty"`
	// Query is the SPARQL source text as received.
	Query string `json:"query"`
	// Fingerprint is the statement's normalized fingerprint — the key
	// under which /v1/debug/statements aggregates its workload row, so a
	// slow capture can be cross-referenced with its statement statistics
	// (and vice versa: the statements row lists its last slow TraceID).
	Fingerprint string `json:"fingerprint,omitempty"`
	// Duration is the end-to-end server-side request time.
	Duration time.Duration `json:"duration"`
	// Epoch is the store epoch the request answered from.
	Epoch uint64 `json:"epoch"`
	// Status is the HTTP status the request was answered with.
	Status int `json:"status,omitempty"`
	// PlanDecisions is the optimizer's decision log for the execution.
	PlanDecisions []string `json:"planDecisions,omitempty"`
	// Trace is the request's full span tree.
	Trace *Span `json:"trace,omitempty"`
}

// SlowLog is a bounded ring of the most recent over-threshold requests.
// A nil *SlowLog is valid and records nothing — the disabled default.
type SlowLog struct {
	mu        sync.Mutex
	threshold time.Duration
	buf       []Entry // ring storage, cap fixed at construction
	next      int     // ring write cursor once len(buf) == cap(buf)
	total     int64   // all observations that crossed the threshold
}

// SlowLogSize is how many entries a slow-query log retains: the most
// recent ones, the oldest evicted first.
const SlowLogSize = 64

// NewSlowLog builds a ring keeping the SlowLogSize most recent requests
// that took at least threshold.
func NewSlowLog(threshold time.Duration) *SlowLog {
	return &SlowLog{threshold: threshold, buf: make([]Entry, 0, SlowLogSize)}
}

// Enabled reports whether observations are being kept.
func (l *SlowLog) Enabled() bool { return l != nil }

// Threshold returns the capture threshold (0 on a nil log).
func (l *SlowLog) Threshold() time.Duration {
	if l == nil {
		return 0
	}
	return l.threshold
}

// Observe records e if it crossed the threshold, evicting the oldest
// entry when the ring is full. Returns whether it was recorded.
func (l *SlowLog) Observe(e Entry) bool {
	if l == nil || e.Duration < l.threshold {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total++
	if len(l.buf) < cap(l.buf) {
		l.buf = append(l.buf, e)
		return true
	}
	l.buf[l.next] = e
	l.next = (l.next + 1) % len(l.buf)
	return true
}

// Total returns how many requests ever crossed the threshold (including
// evicted ones).
func (l *SlowLog) Total() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Entries returns the retained entries, most recent first.
func (l *SlowLog) Entries() []Entry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.buf)
	out := make([]Entry, 0, n)
	// Before the ring wraps (and when the cursor sits at 0) the newest
	// entry is the last slot; otherwise it is just behind the cursor.
	newest := n - 1
	if n == cap(l.buf) && l.next > 0 {
		newest = l.next - 1
	}
	for i := 0; i < n; i++ {
		out = append(out, l.buf[(newest-i+n)%n])
	}
	return out
}
