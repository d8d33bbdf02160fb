// Package metrics is a minimal process-local metrics registry for the
// serving layer (and any engine component that wants live counters): a
// flat namespace of named counters, gauges, computed gauges and
// fixed-bucket histograms, rendered on demand in a Prometheus-style
// text format.
//
// The registry is deliberately small — no labels, no dynamic bucket
// layouts — because its job is to expose the handful of numbers the
// ROADMAP's serving goal cares about (requests, shed, cache hit-rate,
// epoch, solver rounds, request latency) without pulling a client
// library into the module. All operations are safe for concurrent use
// and allocation-free on the hot path (Counter.Add / Gauge.Set are
// single atomics; Histogram.Observe is a bucket increment plus a CAS
// add).
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative n is ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an arbitrarily settable float64.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket cumulative histogram: Observe counts the
// value into every bucket whose upper bound it does not exceed, plus the
// implicit +Inf bucket, and tracks the running sum. The bucket bounds
// are fixed at registration — no dynamic rebinning — which keeps Observe
// a handful of atomics and the rendered series mergeable across
// processes the way Prometheus histograms are.
type Histogram struct {
	bounds []float64      // ascending upper bounds; +Inf is implicit
	counts []atomic.Int64 // len(bounds)+1, last is +Inf
	sum    Gauge          // CAS-add float accumulator
	n      atomic.Int64
}

// DefLatencyBuckets is the default request-latency bucket layout
// (seconds): 0.5ms up to 10s, roughly ×2.5 per step — wide enough for
// both an in-memory point lookup and a cold multi-shard fan-out.
var DefLatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Observe records one value.
//
//dualsim:hotpath
func (h *Histogram) Observe(v float64) {
	// Linear scan: bucket counts are small (≤ ~20) and the branch
	// predicts well; a binary search buys nothing at this size.
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			break
		}
	}
	h.counts[len(h.bounds)].Add(1) // +Inf counts everything
	h.sum.Add(v)
	h.n.Add(1)
}

// Count returns how many values were observed, Sum their total.
func (h *Histogram) Count() int64 { return h.n.Load() }
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// Buckets returns the upper bounds and the cumulative count at each
// (the +Inf bucket is the final entry, with bound +Inf).
func (h *Histogram) Buckets() ([]float64, []int64) {
	bounds := make([]float64, len(h.bounds)+1)
	copy(bounds, h.bounds)
	bounds[len(h.bounds)] = math.Inf(1)
	counts := make([]int64, len(h.counts))
	cum := int64(0)
	for i := 0; i < len(h.bounds); i++ {
		cum += h.counts[i].Load()
		counts[i] = cum
	}
	// The +Inf slot is incremented on every Observe, so it is already
	// the total (not a residual to accumulate).
	counts[len(h.bounds)] = h.counts[len(h.bounds)].Load()
	return bounds, counts
}

// BucketQuantile estimates the q-quantile (0 ≤ q ≤ 1) from a cumulative
// bucket rendering as returned by Buckets (ascending upper bounds with
// +Inf last, cumulative counts) by linear interpolation inside the
// winning bucket. An empty rendering reports 0; a quantile landing in the
// +Inf bucket reports the last finite bound (there is no upper edge to
// interpolate toward). It reads renderings rather than a live histogram
// so merged bucket counts — e.g. statement histograms summed across
// shards — can be interrogated the same way.
func BucketQuantile(bounds []float64, cum []int64, q float64) float64 {
	if len(bounds) == 0 || len(cum) != len(bounds) {
		return 0
	}
	total := cum[len(cum)-1]
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// The rank is the 1-based index of the observation the quantile
	// falls on; ceil keeps q=1 inside the last occupied bucket.
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	for i, c := range cum {
		if c < rank {
			continue
		}
		hi := bounds[i]
		if math.IsInf(hi, 1) {
			// No finite upper edge: report the largest finite bound
			// (or 0 when +Inf is the only bucket).
			if i == 0 {
				return 0
			}
			return bounds[i-1]
		}
		lo := 0.0
		prev := int64(0)
		if i > 0 {
			lo = bounds[i-1]
			prev = cum[i-1]
		}
		in := c - prev
		if in <= 0 {
			return hi
		}
		return lo + (hi-lo)*float64(rank-prev)/float64(in)
	}
	return bounds[len(bounds)-1]
}

// NewHistogram returns an unregistered fixed-bucket histogram over the
// ascending upper bounds — for callers that keep many short-lived
// histograms (e.g. per-statement latency in the workload statistics
// store) without flooding a registry's namespace.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// metric is one registered series.
type metric struct {
	help   string
	typ    string // "counter", "gauge" or "histogram"
	read   func() float64
	owner  any // the *Counter/*Gauge/*Histogram handed back on re-registration; nil for GaugeFunc
	hist   *Histogram
	labels string // pre-rendered {k="v",...} for info gauges; "" otherwise
}

// Registry is a named collection of metrics. The zero value is not
// usable; construct with NewRegistry. Safe for concurrent use.
type Registry struct {
	mu    sync.Mutex
	items map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{items: make(map[string]*metric)}
}

// Counter registers (or returns the previously registered) counter under
// name. Registering the same name as a different metric kind panics —
// a programming error, not a runtime condition.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	got := r.register(name, help, "counter", func() float64 { return float64(c.Value()) }, c)
	return got.(*Counter)
}

// Gauge registers (or returns) a settable gauge under name.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	got := r.register(name, help, "gauge", func() float64 { return g.Value() }, g)
	return got.(*Gauge)
}

// GaugeFunc registers a computed gauge: fn is evaluated at render time.
// fn must be safe for concurrent use. Re-registering a name replaces the
// function (convenient for tests); the kind must still match.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.items[name]; ok {
		if m.typ != "gauge" {
			panic(fmt.Sprintf("metrics: %s re-registered as gauge (was %s)", name, m.typ))
		}
		m.read = fn
		return
	}
	r.items[name] = &metric{help: help, typ: "gauge", read: fn}
}

// InfoGauge registers a constant-1 gauge whose labels carry identity
// metadata — the Prometheus build_info convention (name{k="v"} 1). The
// registry is otherwise label-free; this is the one deliberate
// exception, because a version string has no numeric encoding. Labels
// are rendered sorted by key; re-registering a name replaces them.
func (r *Registry) InfoGauge(name, help string, labels map[string]string) {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rendered := ""
	for _, k := range keys {
		if rendered != "" {
			rendered += ","
		}
		rendered += fmt.Sprintf("%s=%q", k, labels[k])
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.items[name]; ok {
		if m.typ != "gauge" {
			panic(fmt.Sprintf("metrics: %s re-registered as gauge (was %s)", name, m.typ))
		}
		m.labels = rendered
		return
	}
	r.items[name] = &metric{help: help, typ: "gauge", read: func() float64 { return 1 }, labels: rendered}
}

// Histogram registers (or returns) a fixed-bucket histogram under name.
// bounds are ascending upper bounds in the observed unit (use
// DefLatencyBuckets for request latency in seconds); they are fixed for
// the registry's lifetime.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic(fmt.Sprintf("metrics: histogram %s registered without buckets", name))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram %s buckets not strictly ascending at %v", name, bounds[i]))
		}
	}
	h := NewHistogram(bounds)
	got := r.register(name, help, "histogram", func() float64 { return float64(h.Count()) }, h)
	hist := got.(*Histogram)
	r.mu.Lock()
	r.items[name].hist = hist
	r.mu.Unlock()
	return hist
}

func (r *Registry) register(name, help, typ string, read func() float64, owner any) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.items[name]; ok {
		if m.typ != typ {
			panic(fmt.Sprintf("metrics: %s re-registered as %s (was %s)", name, typ, m.typ))
		}
		if m.owner == nil {
			// A GaugeFunc has no settable instance to hand back.
			panic(fmt.Sprintf("metrics: %s is a computed gauge; it has no settable instance", name))
		}
		return m.owner
	}
	r.items[name] = &metric{help: help, typ: typ, read: read, owner: owner}
	return owner
}

// Snapshot returns the current value of every registered metric, keyed
// by name.
func (r *Registry) Snapshot() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.items))
	for name, m := range r.items {
		if m.hist != nil {
			// A histogram has no single value; expose its scalar summaries
			// under the conventional suffixes.
			out[name+"_count"] = float64(m.hist.Count())
			out[name+"_sum"] = m.hist.Sum()
			continue
		}
		out[name] = m.read()
	}
	return out
}

// WriteTo renders the registry in Prometheus text exposition format,
// sorted by name for stable output.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	names := make([]string, 0, len(r.items))
	for name := range r.items {
		names = append(names, name)
	}
	sort.Strings(names)
	type line struct {
		name, help, typ, labels string
		value                   float64
		hist                    *Histogram
	}
	lines := make([]line, len(names))
	for i, name := range names {
		m := r.items[name]
		l := line{name: name, help: m.help, typ: m.typ, labels: m.labels, hist: m.hist}
		if m.hist == nil {
			l.value = m.read()
		}
		lines[i] = l
	}
	r.mu.Unlock()

	var n int64
	for _, l := range lines {
		k, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", l.name, l.help, l.name, l.typ)
		n += int64(k)
		if err != nil {
			return n, err
		}
		if l.hist != nil {
			k, err := writeHistogram(w, l.name, l.hist)
			n += k
			if err != nil {
				return n, err
			}
			continue
		}
		series := l.name
		if l.labels != "" {
			series += "{" + l.labels + "}"
		}
		k, err = fmt.Fprintf(w, "%s %v\n", series, l.value)
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// writeHistogram renders the Prometheus histogram triplet: cumulative
// _bucket{le=...} series (with +Inf), _sum and _count.
func writeHistogram(w io.Writer, name string, h *Histogram) (int64, error) {
	bounds, counts := h.Buckets()
	var n int64
	for i, b := range bounds {
		le := "+Inf"
		if !math.IsInf(b, 1) {
			le = fmt.Sprintf("%v", b)
		}
		k, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, counts[i])
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
	k, err := fmt.Fprintf(w, "%s_sum %v\n", name, h.Sum())
	n += int64(k)
	if err != nil {
		return n, err
	}
	k, err = fmt.Fprintf(w, "%s_count %d\n", name, h.Count())
	n += int64(k)
	return n, err
}
