package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"dualsim"
	"dualsim/client"
)

// setupRepeats is how often a run builds its stack: set-up is over in well
// under a second, so one sample would be mostly noise; the median of three
// is reported and the last stack is the one measured.
const setupRepeats = 3

// sampleEvery selects the serve_mixed reads whose rows are re-evaluated on
// the snapshot of the epoch they report.
const sampleEvery = 50

// limit ends a client's loop: after a fixed number of passes (the traced
// replay, so counters repeat exactly) or once dur has passed.
type limit struct {
	dur    time.Duration
	passes int
}

// sampledRead is a serve_mixed answer kept for the post-window check.
type sampledRead struct {
	o     *op
	epoch uint64
	got   pin
}

// recorder is what one client goroutine observed.
type recorder struct {
	lat       map[string][]float64 // read latency by query ID, ms
	firstRow  []float64            // ms, reads with at least one row (HTTP)
	applyLat  []float64            // ms
	applies   []dualsim.ApplyStats
	stats     []readStats // kept only when the caller asks (traced replay)
	sampled   []sampledRead
	reads     int
	rows      int
	attempted int
	failed    int
	shed      int
	firstErr  error
	elapsed   time.Duration
}

// readStats is one read's client-side latency next to the trailer the
// server sent with it.
type readStats struct {
	o       *op
	start   time.Time
	latency time.Duration
	rows    int
	stats   *dualsim.ExecStats
}

func (r *recorder) fail(o *op, err error) {
	r.failed++
	if client.IsOverloaded(err) {
		r.shed++
	}
	if r.firstErr == nil {
		r.firstErr = fmt.Errorf("%s: %w", o.id, err)
	}
}

// driveOpts are the knobs of one drive call.
type driveOpts struct {
	pins      map[string]pin    // expected row counts (read-only workloads)
	keepStats bool              // keep every trailer
	qopts     []client.QueryOpt // e.g. client.Trace()
	startAt   int               // first op index, so replays continue a sequence
}

// drive runs the workload's clients against the stack, closed loop: each
// client sends its next op when the previous one has been answered.
func drive(ctx context.Context, s *stack, w *workload, lim limit, opt driveOpts) []*recorder {
	recs := make([]*recorder, w.clients)
	var wg sync.WaitGroup
	for c := range recs {
		recs[c] = &recorder{lat: map[string][]float64{}}
		wg.Add(1)
		go func(rec *recorder, seq []op) {
			defer wg.Done()
			start := time.Now()
			for i := 0; ; i++ {
				if lim.passes > 0 && i >= lim.passes*w.passLen {
					break
				}
				// Read-only workloads stop on a whole pass so every
				// query ID has the same number of samples.
				if lim.dur > 0 && time.Since(start) >= lim.dur && (w.kind == served || i%w.passLen == 0) {
					break
				}
				rec.step(ctx, s, &seq[(opt.startAt+i)%len(seq)], opt)
			}
			rec.elapsed = time.Since(start)
		}(recs[c], w.seqs[c])
	}
	wg.Wait()
	return recs
}

func (rec *recorder) step(ctx context.Context, s *stack, o *op, opt driveOpts) {
	rec.attempted++
	if !o.isRead() {
		t0 := time.Now()
		st, err := s.apply(ctx, o)
		if err != nil {
			rec.fail(o, err)
			return
		}
		rec.applyLat = append(rec.applyLat, ms(time.Since(t0)))
		rec.applies = append(rec.applies, *st)
		return
	}
	sample := s.kind == served && rec.reads%sampleEvery == 0
	t0 := time.Now()
	a, err := s.read(ctx, o.text, sample, opt.qopts...)
	d := time.Since(t0)
	if err != nil {
		rec.fail(o, err)
		return
	}
	if want, ok := opt.pins[o.text]; ok && want.rows != a.rows {
		rec.fail(o, fmt.Errorf("%d rows, the oracle has %d", a.rows, want.rows))
		return
	}
	rec.reads++
	rec.rows += a.rows
	rec.lat[o.id] = append(rec.lat[o.id], ms(d))
	if a.firstRow > 0 {
		rec.firstRow = append(rec.firstRow, ms(a.firstRow))
	}
	if opt.keepStats {
		rec.stats = append(rec.stats, readStats{o, t0, d, a.rows, a.stats})
	}
	if sample && s.snapshotAt(a.epoch) != nil {
		rec.sampled = append(rec.sampled, sampledRead{o, a.epoch, pin{a.rows, a.hash}})
	}
}

// verify re-checks answers outside the timed window: every distinct read
// of the workload once with its full row hash on the current store, and
// every sampled serve_mixed read on the snapshot of the epoch it reported.
// Checks and failures are added to res; an error means the oracle itself
// could not run.
func verify(ctx context.Context, s *stack, w *workload, recs []*recorder, pins map[string]pin, res *result) error {
	check := func(id string, got, want pin, err error) {
		res.Attempted++
		if err == nil && got != want {
			err = fmt.Errorf("%d rows hash %#x, the oracle has %d rows hash %#x", got.rows, got.hash, want.rows, want.hash)
		}
		if err != nil {
			res.Failed++
			if res.Err == "" {
				res.Err = fmt.Sprintf("verify %s: %v", id, err)
			}
		}
	}
	if pins == nil { // served: the store moved, pin on its final epoch
		var err error
		if pins, err = pinAll(ctx, s.db.Store(), w.reads); err != nil {
			return err
		}
	}
	for i := range w.reads {
		o := &w.reads[i]
		a, err := s.read(ctx, o.text, true)
		check(o.id, pin{a.rows, a.hash}, pins[o.text], err)
	}
	byEpoch := map[uint64][]sampledRead{}
	for _, rec := range recs {
		for _, sr := range rec.sampled {
			byEpoch[sr.epoch] = append(byEpoch[sr.epoch], sr)
		}
	}
	for epoch, srs := range byEpoch {
		o, err := newOracle(s.snapshotAt(epoch).Store())
		if err != nil {
			return err
		}
		for _, sr := range srs {
			want, err := o.pin(ctx, sr.o.text)
			check(fmt.Sprintf("%s@%d", sr.o.id, epoch), sr.got, want, err)
		}
		o.close()
	}
	return nil
}

// result is one run of one workload: the metrics by name plus the op
// accounting the driver asks for.
type result struct {
	Metrics map[string]float64 `json:"metrics"`
	Samples map[string]int     `json:"samples,omitempty"`
	// ByQuery is each query ID's median latency in ms, the terms of
	// query_geomean_ms; kept in -json reports to locate a regression.
	ByQuery   map[string]float64 `json:"by_query_ms,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Err       string             `json:"error,omitempty"`
}

// account adds the clients' op counts and first failure to the result.
func (res *result) account(recs []*recorder) {
	for _, rec := range recs {
		res.Attempted += rec.attempted
		res.Failed += rec.failed
		if rec.firstErr != nil && res.Err == "" {
			res.Err = rec.firstErr.Error()
		}
	}
}

// qps is completed reads per second, summed over the clients' own clocks.
func qps(recs []*recorder) (v float64) {
	for _, rec := range recs {
		v += float64(rec.reads) / rec.elapsed.Seconds()
	}
	return v
}

// runUntraced is the end-to-end measurement: repeated set-up, the timed
// window with the system's tracing off, then the answer check.
func runUntraced(ctx context.Context, w *workload, in *inputs, window time.Duration, repeats int) (*result, error) {
	res := &result{Metrics: map[string]float64{}, Samples: map[string]int{}}
	var s *stack
	var setups []float64
	for k := 0; k < repeats; k++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, err
			}
			s = nil
			runtime.GC() // the previous stack must not count as this one's heap
		}
		t0 := time.Now()
		var err error
		if s, err = setUp(ctx, w, in); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer s.close()
	res.Metrics["setup_s"], res.Samples["setup_s"] = median(setups), len(setups)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	res.Metrics["heap_after_setup_mb"] = float64(m0.HeapAlloc) / (1 << 20)

	var pins map[string]pin
	if w.kind != served {
		var err error
		if pins, err = pinAll(ctx, s.full, w.reads); err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&m0)
	recs := drive(ctx, s, w, limit{dur: window}, driveOpts{pins: pins})
	runtime.ReadMemStats(&m1)

	var all []float64
	var medians []float64
	byID := map[string][]float64{}
	completed := 0
	res.account(recs)
	res.Metrics["qps"] = qps(recs)
	for _, rec := range recs {
		completed += rec.reads + len(rec.applyLat)
		for id, l := range rec.lat {
			byID[id] = append(byID[id], l...)
			all = append(all, l...)
		}
	}
	res.ByQuery = map[string]float64{}
	for id, l := range byID {
		res.ByQuery[id] = median(l)
		medians = append(medians, res.ByQuery[id])
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("no read completed: %s", res.Err)
	}
	res.Metrics["query_p50_ms"] = quantile(all, 0.50)
	res.Metrics["query_p95_ms"] = quantile(all, 0.95)
	res.Metrics["query_geomean_ms"] = geomean(medians)
	res.Metrics["alloc_kb_per_query"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(completed)
	for _, name := range []string{"qps", "query_p50_ms", "query_p95_ms", "alloc_kb_per_query"} {
		res.Samples[name] = len(all)
	}
	res.Samples["query_geomean_ms"] = len(medians)

	if err := verify(ctx, s, w, recs, pins, res); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	return res, s.close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile is the q-quantile of xs by linear interpolation between the
// closest ranks; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean of positive values; 0 for an empty sample.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(math.Max(x, 1e-9))
	}
	return math.Exp(sum / float64(len(xs)))
}
