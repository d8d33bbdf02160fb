package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "requests")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("reqs_total", "requests"); again != c {
		t.Fatal("re-registration returned a different counter")
	}

	g := r.Gauge("depth", "queue depth")
	g.Set(2.5)
	g.Add(-0.5)
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge = %v, want 2", got)
	}

	r.GaugeFunc("epoch", "store epoch", func() float64 { return 7 })
	snap := r.Snapshot()
	if snap["reqs_total"] != 5 || snap["depth"] != 2 || snap["epoch"] != 7 {
		t.Fatalf("snapshot = %v", snap)
	}
}

func TestWriteToFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "bees").Add(3)
	r.GaugeFunc("a_gauge", "ays", func() float64 { return 1.5 })
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// Sorted by name, each with HELP/TYPE preamble.
	wantOrder := strings.Index(out, "a_gauge")
	if wantOrder < 0 || wantOrder > strings.Index(out, "b_total") {
		t.Fatalf("names not sorted:\n%s", out)
	}
	for _, line := range []string{
		"# TYPE a_gauge gauge", "a_gauge 1.5",
		"# TYPE b_total counter", "b_total 3",
	} {
		if !strings.Contains(out, line+"\n") {
			t.Fatalf("output misses %q:\n%s", line, out)
		}
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("x", "")
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c", "").Inc()
				r.Gauge("g", "").Add(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c", "").Value(); got != 8000 {
		t.Fatalf("concurrent counter = %d, want 8000", got)
	}
	if got := r.Gauge("g", "").Value(); got != 8000 {
		t.Fatalf("concurrent gauge = %v, want 8000", got)
	}
}

func TestHistogramBucketsAndRender(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("req_seconds", "request latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 0.005+0.05+0.05+0.5+5; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	bounds, counts := h.Buckets()
	if len(bounds) != 4 || len(counts) != 4 {
		t.Fatalf("bucket shape = %d/%d, want 4/4", len(bounds), len(counts))
	}
	// Cumulative: ≤0.01 → 1, ≤0.1 → 3, ≤1 → 4, +Inf → 5.
	for i, want := range []int64{1, 3, 4, 5} {
		if counts[i] != want {
			t.Fatalf("bucket[%d] = %d, want %d", i, counts[i], want)
		}
	}

	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE req_seconds histogram",
		`req_seconds_bucket{le="0.01"} 1`,
		`req_seconds_bucket{le="0.1"} 3`,
		`req_seconds_bucket{le="1"} 4`,
		`req_seconds_bucket{le="+Inf"} 5`,
		"req_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered output missing %q:\n%s", want, out)
		}
	}

	// Re-registration hands back the same histogram; snapshot exposes
	// the scalar summaries.
	if again := r.Histogram("req_seconds", "request latency", []float64{0.01, 0.1, 1}); again != h {
		t.Fatal("re-registration returned a different histogram")
	}
	snap := r.Snapshot()
	if snap["req_seconds_count"] != 5 {
		t.Fatalf("snapshot count = %v, want 5", snap["req_seconds_count"])
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "x", DefLatencyBuckets)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(0.003)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
	_, counts := h.Buckets()
	if counts[len(counts)-1] != 8000 {
		t.Fatalf("+Inf bucket = %d, want 8000", counts[len(counts)-1])
	}
}

func TestHistogramBadBucketsPanic(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("non-ascending buckets did not panic")
		}
	}()
	r.Histogram("bad", "x", []float64{1, 1})
}

// quantile reads a live histogram the way the statement table reads its
// bucket renderings.
func quantile(h *Histogram, q float64) float64 {
	bounds, cum := h.Buckets()
	return BucketQuantile(bounds, cum, q)
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "x", []float64{0.01, 0.1, 1})

	// Degenerate: nothing observed yet.
	if got := quantile(h, 0.5); got != 0 {
		t.Fatalf("empty histogram p50 = %v, want 0", got)
	}

	// 8 values in (0.01, 0.1], 2 in (0.1, 1]: p50 interpolates inside
	// the second bucket, p95 inside the third.
	for i := 0; i < 8; i++ {
		h.Observe(0.05)
	}
	h.Observe(0.5)
	h.Observe(0.5)
	p50 := quantile(h, 0.50)
	if p50 <= 0.01 || p50 > 0.1 {
		t.Fatalf("p50 = %v, want inside (0.01, 0.1]", p50)
	}
	// rank 5 of 8 in-bucket observations: 0.01 + 0.09*5/8.
	if want := 0.01 + 0.09*5/8; math.Abs(p50-want) > 1e-9 {
		t.Fatalf("p50 = %v, want %v", p50, want)
	}
	p95 := quantile(h, 0.95)
	if p95 <= 0.1 || p95 > 1 {
		t.Fatalf("p95 = %v, want inside (0.1, 1]", p95)
	}
	// q clamps to [0, 1] and the extremes stay inside the layout.
	if got := quantile(h, -1); got <= 0 || got > 0.1 {
		t.Fatalf("q<0 = %v, want first occupied bucket", got)
	}
	if got := quantile(h, 2); got <= 0.1 || got > 1 {
		t.Fatalf("q>1 = %v, want last occupied bucket", got)
	}
}

func TestHistogramQuantileSingleBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("one", "x", []float64{1})
	h.Observe(0.2)
	h.Observe(0.4)
	// Interpolation starts from 0 for the first bucket: rank 1 of 2.
	if got, want := quantile(h, 0.5), 0.5; math.Abs(got-want) > 1e-9 {
		t.Fatalf("single-bucket p50 = %v, want %v", got, want)
	}
	if got := quantile(h, 1); math.Abs(got-1) > 1e-9 {
		t.Fatalf("single-bucket p100 = %v, want 1", got)
	}
}

func TestHistogramQuantileInfBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("inf", "x", []float64{0.01, 0.1})
	h.Observe(50) // lands in +Inf
	// No finite upper edge: the quantile reports the last finite bound.
	if got := quantile(h, 0.99); got != 0.1 {
		t.Fatalf("+Inf-bucket quantile = %v, want last finite bound 0.1", got)
	}
}

func TestBucketQuantileMerged(t *testing.T) {
	// Two shards' cumulative renderings of the same layout merge by
	// summing position-wise; the quantile then reads the merged view.
	bounds := []float64{0.01, 0.1, 1, math.Inf(1)}
	a := []int64{4, 6, 6, 6}
	b := []int64{0, 2, 4, 4}
	merged := make([]int64, len(a))
	for i := range a {
		merged[i] = a[i] + b[i]
	}
	// 10 observations: 4 ≤0.01, 4 in (0.01,0.1], 2 in (0.1,1].
	if got := BucketQuantile(bounds, merged, 0.5); got <= 0.01 || got > 0.1 {
		t.Fatalf("merged p50 = %v, want inside (0.01, 0.1]", got)
	}
	if got := BucketQuantile(bounds, merged, 1); got <= 0.1 || got > 1 {
		t.Fatalf("merged p100 = %v, want inside (0.1, 1]", got)
	}
	if got := BucketQuantile(nil, nil, 0.5); got != 0 {
		t.Fatalf("nil buckets quantile = %v, want 0", got)
	}
}
