package dualsim

import (
	"context"
	"errors"
	"runtime"
	"strconv"
	"sync"
	"time"

	"dualsim/internal/trace"
)

// BatchRequest is one query of an ExecBatch call.
type BatchRequest struct {
	// Src is the query text. It is resolved through the session's plan
	// cache when one is configured (WithPlanCache), so repeated texts in
	// and across batches plan once.
	Src string
	// Prepared, when non-nil, is executed directly and Src is ignored —
	// the fast path for callers that manage prepared queries themselves.
	Prepared *PreparedQuery
}

// BatchResult is the outcome of one BatchRequest, at the same index.
type BatchResult struct {
	// Result and Stats are the request's execution outcome, as from
	// PreparedQuery.Exec; both are nil when Err is set.
	Result *Result
	Stats  *ExecStats
	// Store is the snapshot the request answered from (the epoch in
	// Stats.Epoch). Result rows must be decoded against this store, not
	// the session's current one: requests of one batch may span two
	// epochs when an Apply lands mid-batch, and a compaction renumbers
	// every node id.
	Store *Store
	// Err is the request's failure: a parse/plan error, an execution
	// error, or the batch context's error for requests cancelled (or
	// never started) after the batch was aborted.
	Err error
}

// BatchStats aggregates the outcome of one batch execution. JSON tags
// are part of the serving wire format (see ExecStats).
//
//dualsim:wire
type BatchStats struct {
	// Requests is the number of requests in the batch; Failed how many
	// carried an error.
	Requests int `json:"requests"`
	Failed   int `json:"failed,omitempty"`
	// CacheHits counts requests served from the plan cache.
	CacheHits int `json:"cacheHits"`
	// Results is the total number of solution mappings across the batch.
	Results int `json:"results"`
	// Duration is the caller-observed wall time of the whole batch (0
	// when summarized without timing).
	Duration time.Duration `json:"duration"`
	// Trace is the batch's span tree when tracing was enabled on the
	// serving request: one child per batch query, each carrying its
	// pipeline and operator spans. Nil by default.
	Trace *trace.Span `json:"trace,omitempty"`
}

// SummarizeBatch folds per-request batch results into a BatchStats.
// elapsed is the caller-measured wall time of the ExecBatch call.
func SummarizeBatch(out []BatchResult, elapsed time.Duration) BatchStats {
	bs := BatchStats{Requests: len(out), Duration: elapsed}
	for i := range out {
		if out[i].Err != nil {
			bs.Failed++
			continue
		}
		if out[i].Stats != nil {
			if out[i].Stats.CacheHit {
				bs.CacheHits++
			}
			bs.Results += out[i].Stats.Results
		}
	}
	return bs
}

// BatchOption configures one ExecBatch call.
type BatchOption func(*batchConfig)

type batchConfig struct {
	failFast bool
	workers  int
}

// BatchFailFast aborts the batch on the first per-request error: the
// remaining requests are cancelled, and ExecBatch returns that first
// error. Without it ExecBatch collects — every request runs and reports
// its own BatchResult.Err.
func BatchFailFast() BatchOption {
	return func(c *batchConfig) { c.failFast = true }
}

// BatchWorkers overrides the session's batch width (WithBatchWorkers)
// for one call.
func BatchWorkers(n int) BatchOption {
	return func(c *batchConfig) { c.workers = n }
}

// errEmptyRequest reports a BatchRequest with neither Src nor Prepared.
var errEmptyRequest = errors.New("dualsim: batch request has neither Src nor Prepared")

// ExecBatch executes a slice of queries concurrently over the session's
// worker pool (WithBatchWorkers, default GOMAXPROCS) and returns one
// BatchResult per request, positionally. Request texts go through the
// session's plan cache when one is configured.
//
// Error semantics are collect-by-default: each request carries its own
// BatchResult.Err and ExecBatch returns a nil error unless the session
// is closed or ctx is cancelled (then ctx.Err() is returned and
// not-yet-started requests are marked with it). With BatchFailFast the
// first per-request error additionally cancels the rest of the batch and
// is returned as the call's error.
func (db *DB) ExecBatch(ctx context.Context, reqs []BatchRequest, opts ...BatchOption) ([]BatchResult, error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	if ctx == nil {
		ctx = context.Background()
	}
	cfg := batchConfig{workers: db.set.batchWorkers}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.workers <= 0 {
		cfg.workers = runtime.GOMAXPROCS(0)
	}
	if cfg.workers > len(reqs) {
		cfg.workers = len(reqs)
	}
	out := make([]BatchResult, len(reqs))
	if len(reqs) == 0 {
		return out, nil
	}

	bctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	parent := trace.SpanFromContext(ctx)
	idx := make(chan int)
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				sctx := bctx
				sp := parent.StartChild("batch.query")
				if sp != nil {
					sp.SetAttr("index", strconv.Itoa(i))
					sctx = trace.ContextWithSpan(bctx, sp)
				}
				out[i] = db.execOne(sctx, reqs[i])
				sp.End()
				if out[i].Err != nil {
					err := out[i].Err
					errOnce.Do(func() {
						firstErr = err
						if cfg.failFast {
							cancel()
						}
					})
				}
			}
		}()
	}
feed:
	for i := range reqs {
		select {
		case idx <- i:
		case <-bctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()

	// Requests the abort raced past never produced a result; mark them
	// with the batch error instead of leaving silent zero values.
	if err := bctx.Err(); err != nil {
		for i := range out {
			if out[i].Result == nil && out[i].Stats == nil && out[i].Err == nil {
				out[i].Err = err
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return out, err
	}
	// The timer behind a deadline can fire tens of milliseconds late —
	// after a short batch has finished, its tail failed by the executor's
	// own wall-clock check. The batch reports the deadline then too.
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return out, context.DeadlineExceeded
	}
	if cfg.failFast && firstErr != nil {
		return out, firstErr
	}
	return out, nil
}

// execOne resolves and executes a single batch request. Each request
// resolves the session snapshot exactly once, at planning, so it is
// answered from a single consistent epoch even when an Apply lands
// mid-batch (requests of one batch may then span two epochs — each
// reports its own in ExecStats.Epoch).
func (db *DB) execOne(ctx context.Context, req BatchRequest) BatchResult {
	pq, hit := req.Prepared, false
	if pq == nil {
		if req.Src == "" {
			return BatchResult{Err: errEmptyRequest}
		}
		var err error
		pq, hit, err = db.prepareCached(db.snap.Load(), req.Src, false)
		if err != nil {
			return BatchResult{Err: err}
		}
	}
	recordPrepareSpans(ctx, pq, hit)
	res, stats, err := pq.Exec(ctx)
	if err != nil {
		return BatchResult{Err: err}
	}
	stats.CacheHit = hit
	return BatchResult{Result: res, Stats: stats, Store: pq.snap.st}
}
