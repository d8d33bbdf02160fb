// Package router is the scatter-gather backend of a sharded dualsimd
// cluster (cmd/dualsimrouter). It implements server.Backend, so the
// protocol core of internal/server serves it exactly like a single
// dualsimd — same routes, same admission control, same error mapping —
// and clients cannot tell a cluster from one node. What lives here is
// routing only: probing, endpoint choice, push-down, gather, merge,
// delta splitting and aggregation, plus the one route a single node
// does not have:
//
//	GET  /v1/cluster  per-shard endpoint health, epochs, latencies
//
// # Routing correctness
//
// The query decomposes at TOP-LEVEL UNIONs only (topBranches). For each
// branch the router collects the predicates its patterns mention:
//
//   - all on one shard → push-down: the branch is sent verbatim to that
//     shard. Exact, because a shard holds EVERY triple of its
//     predicates and a dual-simulation answer depends only on the
//     triples of the mentioned predicates — the shard sees the same
//     effective store a single node would.
//
//   - spread over several shards → data-gather: the router exports the
//     predicate slices (GET /v1/export), assembles a scratch store and
//     evaluates the branch locally with the ordinary dualsim pipeline.
//     Shipping partial RESULTS instead would be wrong: a cross-shard
//     join cannot be merged row-wise, and OPTIONAL over partial data
//     manufactures spurious unextended rows.
//
// Deeper UNIONs stay inside their branch and are evaluated natively by
// whichever engine runs the branch. Branch results merge exactly like
// the engine's union operator: columns fold left-to-right (left vars,
// then unseen right vars), rows are padded to the merged schema and
// deduplicated (set semantics). The merged epoch is the maximum over
// the shard epochs that answered — per-shard reads are individually
// epoch-consistent, and X-Dualsim-Epoch reports the freshest of them.
//
// EXPLAIN is forwarded when the whole query pushes down to one shard;
// a scattered query has no single plan and is refused with 400.
//
// # Replica routing
//
// Reads load-balance round-robin over a shard's caught-up endpoints:
// up, ready (200 on /readyz), and within the staleness bound of the
// shard's freshest known epoch. Writes always go to the primary. A
// failed read fails over to the next candidate once, marking the dead
// endpoint down until a probe revives it.
package router

import (
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dualsim"
	"dualsim/client"
	"dualsim/internal/cluster"
	"dualsim/internal/metrics"
	"dualsim/internal/server"
	"dualsim/internal/sparql"
	qstats "dualsim/internal/stats"
	"dualsim/internal/trace"
	"dualsim/internal/wire"
)

// probeTimeout bounds one /readyz probe round-trip.
const probeTimeout = 2 * time.Second

// Option configures a Router.
type Option func(*config) error

type config struct {
	maxLag     uint64
	probeEvery time.Duration
	protocol   []server.Option
}

// WithMaxLag sets the bounded-staleness routing threshold: a replica
// whose last probed epoch is more than n behind the shard's freshest
// known epoch is skipped (default 0 — only fully caught-up endpoints
// serve reads).
func WithMaxLag(n uint64) Option {
	return func(c *config) error {
		c.maxLag = n
		return nil
	}
}

// WithProbeEvery sets the health-probe period (default 1s).
func WithProbeEvery(d time.Duration) Option {
	return func(c *config) error {
		if d <= 0 {
			return fmt.Errorf("router: probe period must be positive, got %v", d)
		}
		c.probeEvery = d
		return nil
	}
}

// WithProtocol hands settings to the protocol core the router is served
// by: server.WithDefaultTimeout, WithSlowQueryLog, WithRegistry, the
// admission bounds. They are defined once, in internal/server.
func WithProtocol(opts ...server.Option) Option {
	return func(c *config) error {
		c.protocol = append(c.protocol, opts...)
		return nil
	}
}

// endpoint is the router's live view of one shard daemon.
type endpoint struct {
	url  string
	role string // "primary" or "replica"
	c    *client.Client

	mu        sync.Mutex
	up        bool
	ready     bool
	epoch     uint64
	latencyMs float64
	lastErr   string
}

func (e *endpoint) status() wire.EndpointStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	return wire.EndpointStatus{
		URL: e.url, Role: e.role,
		Up: e.up, Ready: e.ready, Epoch: e.epoch,
		LatencyMs: e.latencyMs, Error: e.lastErr,
	}
}

// markDown records a request-path failure so routing skips the
// endpoint until the next successful probe.
func (e *endpoint) markDown(err error) {
	e.mu.Lock()
	e.up, e.ready, e.lastErr = false, false, err.Error()
	e.mu.Unlock()
}

// shard is one partition's endpoint group: the primary first, then
// replicas; rr drives round-robin read balancing.
type shard struct {
	eps []*endpoint
	mu  sync.Mutex
	rr  int
}

func (s *shard) primary() *endpoint { return s.eps[0] }

// maxEpoch is the freshest epoch any endpoint of the shard has shown —
// the reference point of the staleness bound.
func (s *shard) maxEpoch() uint64 {
	var m uint64
	for _, e := range s.eps {
		e.mu.Lock()
		if e.epoch > m {
			m = e.epoch
		}
		e.mu.Unlock()
	}
	return m
}

// pick returns read candidates in routing order: caught-up ready
// endpoints round-robin first, then (when none) the primary if it is
// at least up, then any up endpoint — a degraded read beats no read.
func (s *shard) pick(maxLag uint64) []*endpoint {
	fresh := s.maxEpoch()
	var ready, up []*endpoint
	for _, e := range s.eps {
		e.mu.Lock()
		switch {
		case e.up && e.ready && e.epoch+maxLag >= fresh:
			ready = append(ready, e)
		case e.up:
			up = append(up, e)
		}
		e.mu.Unlock()
	}
	if len(ready) > 1 {
		s.mu.Lock()
		s.rr++
		off := s.rr % len(ready)
		s.mu.Unlock()
		ready = append(ready[off:], ready[:off]...)
	}
	if len(ready) > 0 {
		return append(ready, up...)
	}
	return up
}

// Router fans queries over the shards of one cluster: a server.Backend
// with the protocol core that serves it embedded. Construct with New,
// start probes (Run) and mount it as an http.Handler.
type Router struct {
	*server.Core
	shards []*shard
	cfg    config

	pushdowns *metrics.Counter
	gathers   *metrics.Counter
	failovers *metrics.Counter
}

// New builds a router over shardEndpoints: element i lists shard i's
// daemons, primary first, then read replicas. Shard count is fixed at
// construction — it must match the partitioning the daemons serve.
func New(shardEndpoints [][]string, opts ...Option) (*Router, error) {
	if len(shardEndpoints) == 0 {
		return nil, fmt.Errorf("router: no shards")
	}
	cfg := config{probeEvery: time.Second}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	r := &Router{cfg: cfg}
	// A traced query gets a "router.fanout" root span; each branch hangs
	// under it with its mode and, for push-downs, the shard's own subtree
	// Continued under the same trace ID.
	core, err := server.NewCore(r, "dualsimrouter", "router.fanout", cfg.protocol...)
	if err != nil {
		return nil, err
	}
	r.Core = core
	reg := core.Registry()
	r.pushdowns = reg.Counter("dualsimrouter_pushdowns_total", "single-shard branches pushed down verbatim")
	r.gathers = reg.Counter("dualsimrouter_gathers_total", "cross-shard branches evaluated via data gather")
	r.failovers = reg.Counter("dualsimrouter_failovers_total", "reads failed over to another endpoint")
	for si, urls := range shardEndpoints {
		if len(urls) == 0 {
			return nil, fmt.Errorf("router: shard %d has no endpoints", si)
		}
		sh := &shard{}
		for ei, u := range urls {
			c, err := client.New(u)
			if err != nil {
				return nil, fmt.Errorf("router: shard %d endpoint %q: %w", si, u, err)
			}
			role := "replica"
			if ei == 0 {
				role = "primary"
			}
			ep := &endpoint{url: strings.TrimRight(u, "/"), role: role, c: c}
			sh.eps = append(sh.eps, ep)
			registerEndpointGauges(reg, si, ei, role, ep)
		}
		r.shards = append(r.shards, sh)
	}
	reg.GaugeFunc("dualsimrouter_shards", "shards this router fans over", func() float64 {
		return float64(len(r.shards))
	})
	r.Handle("GET /v1/cluster", r.handleCluster)
	return r, nil
}

// registerEndpointGauges exposes one endpoint's probe state as flat
// per-endpoint series (the registry is label-free; the name carries the
// shard index and role).
func registerEndpointGauges(reg *metrics.Registry, si, ei int, role string, ep *endpoint) {
	prefix := fmt.Sprintf("dualsimrouter_shard%d_%s", si, role)
	if role == "replica" && ei > 1 {
		prefix = fmt.Sprintf("%s%d", prefix, ei-1)
	}
	reg.GaugeFunc(prefix+"_up", "endpoint answered its last probe", func() float64 {
		if ep.status().Up {
			return 1
		}
		return 0
	})
	reg.GaugeFunc(prefix+"_ready", "endpoint is routable (200 on /readyz)", func() float64 {
		if ep.status().Ready {
			return 1
		}
		return 0
	})
	reg.GaugeFunc(prefix+"_epoch", "endpoint epoch at the last probe", func() float64 {
		return float64(ep.status().Epoch)
	})
	reg.GaugeFunc(prefix+"_probe_latency_ms", "last probe round-trip in milliseconds", func() float64 {
		return ep.status().LatencyMs
	})
}

// ---------------------------------------------------------------------------
// Probing

// Probe probes every endpoint once, concurrently. Exposed for tests
// and for a synchronous first probe before serving.
func (r *Router) Probe(ctx context.Context) {
	var wg sync.WaitGroup
	for _, sh := range r.shards {
		for _, ep := range sh.eps {
			wg.Add(1)
			go func(ep *endpoint) {
				defer wg.Done()
				r.probeOne(ctx, ep)
			}(ep)
		}
	}
	wg.Wait()
}

func (r *Router) probeOne(ctx context.Context, ep *endpoint) {
	pctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	start := time.Now()
	resp, err := ep.c.Ready(pctx)
	lat := float64(time.Since(start).Microseconds()) / 1000

	ep.mu.Lock()
	defer ep.mu.Unlock()
	ep.latencyMs = lat
	switch {
	case err == nil:
		ep.up, ep.ready, ep.epoch, ep.lastErr = true, true, resp.Epoch, ""
	default:
		var ae *client.APIError
		if errors.As(err, &ae) && ae.StatusCode == http.StatusServiceUnavailable {
			// The process answered: alive but declining traffic
			// (draining, bootstrapping, lagging).
			ep.up, ep.ready, ep.lastErr = true, false, ae.Message
		} else {
			ep.up, ep.ready, ep.lastErr = false, false, err.Error()
		}
	}
}

// Run probes all endpoints on the configured period until ctx cancels
// (first round immediately).
func (r *Router) Run(ctx context.Context) error {
	t := time.NewTicker(r.cfg.probeEvery)
	defer t.Stop()
	for {
		r.Probe(ctx)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
}

// ---------------------------------------------------------------------------
// Query execution

// topBranches splits the expression at top-level UNIONs only, in
// left-to-right order. Unlike sparql.UnionFreeBranches it never
// rewrites below other operators: that rewriting over-approximates for
// UNION under OPTIONAL, which is fine for pruning but not for routing —
// the router needs branches whose results merge EXACTLY via the union
// operator.
func topBranches(e sparql.Expr) []sparql.Expr {
	if u, ok := e.(sparql.Union); ok {
		return append(topBranches(u.L), topBranches(u.R)...)
	}
	return []sparql.Expr{e}
}

// branchPreds returns the distinct predicates a branch mentions, in
// first-appearance order, and whether any predicate position holds a
// variable (unroutable — and rejected by the solver core anyway).
func branchPreds(e sparql.Expr) (preds []string, hasVarPred bool) {
	seen := make(map[string]bool)
	for _, tp := range sparql.Triples(e) {
		if tp.P.IsVar() || tp.P.Const == nil {
			return nil, true
		}
		if p := tp.P.Const.Value; !seen[p] {
			seen[p] = true
			preds = append(preds, p)
		}
	}
	return preds, false
}

// branchResult is one branch's decoded result, ready to merge.
type branchResult struct {
	vars  []string
	rows  [][]*string
	epoch uint64
}

// applyLimit slices the deduplicated merge to the query's LIMIT/OFFSET
// window. Rows are ordered canonically first (nil-first, then decoded
// term text), so the window is deterministic across routings — set
// semantics fixes no order, but a repeated query should not flap.
func (b *branchResult) applyLimit(limit, offset int) {
	if limit == 0 && offset == 0 {
		return
	}
	sort.Slice(b.rows, func(i, j int) bool {
		ri, rj := b.rows[i], b.rows[j]
		for k := range ri {
			li, lj := ri[k], rj[k]
			switch {
			case li == nil && lj == nil:
				continue
			case li == nil:
				return true
			case lj == nil:
				return false
			case *li != *lj:
				return *li < *lj
			}
		}
		return false
	})
	lo := offset
	if lo > len(b.rows) {
		lo = len(b.rows)
	}
	hi := len(b.rows)
	if limit > 0 && lo+limit < hi {
		hi = lo + limit
	}
	b.rows = b.rows[lo:hi]
}

// execQuery routes one query end-to-end: decompose, execute each branch
// (push-down or gather), merge with union semantics. A LIMIT travels
// with each branch — truncating a branch to limit+offset distinct rows
// cannot starve the merged answer, because the post-merge dedup only
// shrinks row counts — and is re-applied (with the OFFSET) over the
// deduplicated merge.
func (r *Router) execQuery(ctx context.Context, src string) (*branchResult, error) {
	q, err := dualsim.ParseQuery(src)
	if err != nil {
		return nil, err
	}
	pushLimit := 0
	if q.Limit > 0 {
		pushLimit = q.Limit + q.Offset
	}
	branches := topBranches(q.Expr)
	results := make([]*branchResult, len(branches))
	errs := make([]error, len(branches))
	parent := trace.SpanFromContext(ctx)
	var wg sync.WaitGroup
	for i, b := range branches {
		wg.Add(1)
		go func(i int, b sparql.Expr) {
			defer wg.Done()
			bctx := ctx
			sp := parent.StartChild("branch")
			if sp != nil {
				sp.SetAttr("branch", strconv.Itoa(i))
				bctx = trace.ContextWithSpan(ctx, sp)
			}
			results[i], errs[i] = r.execBranch(bctx, b, pushLimit)
			sp.End()
		}(i, b)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// Fold with the engine's union: left vars first, then unseen right
	// vars; rows padded to the merged schema; full-row set dedup.
	merged := results[0]
	for _, br := range results[1:] {
		merged = mergeUnion(merged, br)
	}
	merged.applyLimit(q.Limit, q.Offset)
	return merged, nil
}

func (r *Router) execBranch(ctx context.Context, b sparql.Expr, pushLimit int) (*branchResult, error) {
	preds, hasVarPred := branchPreds(b)
	if hasVarPred {
		return nil, server.Errorf(http.StatusBadRequest, "variable predicates are not supported")
	}
	src := "SELECT * WHERE " + b.String()
	if pushLimit > 0 {
		// Single-shard branches carry the bound all the way to the
		// shard's own executor (which pushes it further down its plan);
		// gather branches bound the local evaluation the same way.
		src += fmt.Sprintf(" LIMIT %d", pushLimit)
	}
	if len(preds) == 0 {
		// A constant-free pattern touches no shard; evaluate over an
		// empty scratch store for exact (usually empty) semantics.
		return evalLocal(ctx, nil, src, 0)
	}
	owners := make(map[int][]string) // shard index → its preds
	for _, p := range preds {
		i := cluster.ShardOf(p, len(r.shards))
		owners[i] = append(owners[i], p)
	}
	sp := trace.SpanFromContext(ctx)
	if len(owners) == 1 {
		for si := range owners {
			r.pushdowns.Inc()
			if sp != nil {
				sp.SetAttr("mode", "pushdown")
				sp.SetAttr("shard", strconv.Itoa(si))
			}
			return r.pushDown(ctx, si, src)
		}
	}
	r.gathers.Inc()
	sp.SetAttr("mode", "gather")
	return r.gather(ctx, owners, src)
}

// onShard runs one read against shard si: the first routing candidate,
// then one failover when the failure is the endpoint's (transport
// error, 5xx) rather than the request's (4xx) or our own context
// expiring. A failed endpoint is marked down until a probe revives it.
func onShard[T any](ctx context.Context, r *Router, si int, call func(*endpoint) (T, error)) (T, error) {
	var zero T
	var lastErr error
	for attempt, ep := range r.shards[si].pick(r.cfg.maxLag) {
		if attempt > 1 { // first pick + one failover is enough
			break
		}
		if attempt > 0 {
			r.failovers.Inc()
		}
		out, err := call(ep)
		if err == nil {
			return out, nil
		}
		if ctx.Err() != nil {
			return zero, ctx.Err()
		}
		lastErr = err
		var ae *client.APIError
		var se *client.StreamError
		if errors.As(err, &ae) && ae.StatusCode < 500 || errors.As(err, &se) {
			break // the shard answered and judged the request; it is not down
		}
		ep.markDown(err)
	}
	return zero, shardFailure(si, lastErr)
}

// shardFailure maps a shard's terminal error onto the router's reply.
func shardFailure(si int, err error) error {
	if err == nil {
		return server.Errorf(http.StatusServiceUnavailable, "shard %d has no live endpoint", si)
	}
	var ae *client.APIError
	if errors.As(err, &ae) && ae.StatusCode < 500 {
		// The shard judged the request itself; relay its verdict.
		return server.Errorf(ae.StatusCode, "shard %d: %s", si, ae.Message)
	}
	return server.Errorf(http.StatusBadGateway, "shard %d: %v", si, err)
}

// pushDown sends the branch verbatim to the single shard owning all its
// predicates and drains the shard's row stream.
func (r *Router) pushDown(ctx context.Context, si int, src string) (*branchResult, error) {
	// A traced fan-out propagates its identity on the wire: the shard
	// Continues the trace under the same ID and ships its pipeline +
	// operator subtree back in the stats trailer, which stitches under
	// this branch's span — one tree shows the whole cluster request.
	sp := trace.SpanFromContext(ctx)
	var qopts []client.QueryOpt
	if tp := sp.Traceparent(); tp != "" {
		qopts = append(qopts, client.Trace(), client.Traceparent(tp))
	}
	return onShard(ctx, r, si, func(ep *endpoint) (*branchResult, error) {
		st, err := ep.c.QueryStream(ctx, src, qopts...)
		if err != nil {
			return nil, err
		}
		defer st.Close()
		out := &branchResult{vars: st.Vars(), rows: [][]*string{}, epoch: st.Epoch()}
		for st.Next() {
			out.rows = append(out.rows, st.Row())
		}
		if err := st.Err(); err != nil {
			return nil, err
		}
		if sp != nil {
			sp.SetAttr("endpoint", ep.url)
			if stats := st.Stats(); stats != nil {
				sp.Attach(stats.Trace)
			}
		}
		return out, nil
	})
}

// gather exports each owning shard's predicate slices, assembles a
// scratch store and evaluates the branch locally — the exact path for
// branches whose predicates span shards.
func (r *Router) gather(ctx context.Context, owners map[int][]string, src string) (*branchResult, error) {
	type slice struct {
		triples []dualsim.Triple
		epoch   uint64
	}
	idxs := make([]int, 0, len(owners))
	for si := range owners {
		idxs = append(idxs, si)
	}
	sort.Ints(idxs)
	slices := make([]slice, len(idxs))
	errs := make([]error, len(idxs))
	sp := trace.SpanFromContext(ctx)
	var wg sync.WaitGroup
	for k, si := range idxs {
		wg.Add(1)
		go func(k, si int) {
			defer wg.Done()
			e0 := time.Now()
			out, err := onShard(ctx, r, si, func(ep *endpoint) (*wire.ExportResponse, error) {
				return ep.c.Export(ctx, owners[si])
			})
			if err != nil {
				errs[k] = err
				return
			}
			if es := sp.Record("export", time.Since(e0)); es != nil {
				es.SetAttr("shard", strconv.Itoa(si))
				es.Add("triples", int64(len(out.Triples)))
			}
			ts := make([]dualsim.Triple, len(out.Triples))
			for i, t := range out.Triples {
				ts[i] = t.ToTriple()
			}
			slices[k] = slice{triples: ts, epoch: out.Epoch}
		}(k, si)
	}
	wg.Wait()
	var all []dualsim.Triple
	var epoch uint64
	for k, err := range errs {
		if err != nil {
			return nil, err
		}
		all = append(all, slices[k].triples...)
		if slices[k].epoch > epoch {
			epoch = slices[k].epoch
		}
	}
	return evalLocal(ctx, all, src, epoch)
}

// evalLocal runs a branch over a scratch store through the ordinary
// dualsim pipeline and decodes rows into wire form.
func evalLocal(ctx context.Context, ts []dualsim.Triple, src string, epoch uint64) (*branchResult, error) {
	st, err := dualsim.FromTriples(ts)
	if err != nil {
		return nil, server.Errorf(http.StatusBadGateway, "assembling gather store: %v", err)
	}
	db, err := dualsim.Open(st)
	if err != nil {
		return nil, server.Errorf(http.StatusBadGateway, "opening gather session: %v", err)
	}
	defer db.Close()
	res, _, err := db.Snapshot().Query(ctx, src)
	if err != nil {
		return nil, err
	}
	rows := make([][]*string, len(res.Rows))
	for i, row := range res.Rows {
		rows[i] = make([]*string, len(row))
		for j, v := range row {
			if v != dualsim.Unbound {
				s := st.Term(v).String()
				rows[i][j] = &s
			}
		}
	}
	return &branchResult{vars: append([]string{}, res.Vars...), rows: rows, epoch: epoch}, nil
}

// mergeUnion folds two branch results with the engine's union operator
// semantics: unionVars column order, padded projection, set dedup.
func mergeUnion(l, r *branchResult) *branchResult {
	vars := append([]string{}, l.vars...)
	idx := make(map[string]int, len(vars))
	for i, v := range vars {
		idx[v] = i
	}
	for _, v := range r.vars {
		if _, ok := idx[v]; !ok {
			idx[v] = len(vars)
			vars = append(vars, v)
		}
	}
	project := func(rows [][]*string, rowVars []string) [][]*string {
		cols := make([]int, len(rowVars))
		for i, v := range rowVars {
			cols[i] = idx[v]
		}
		out := make([][]*string, len(rows))
		for i, row := range rows {
			p := make([]*string, len(vars))
			for j, v := range row {
				p[cols[j]] = v
			}
			out[i] = p
		}
		return out
	}
	merged := project(l.rows, l.vars)
	merged = append(merged, project(r.rows, r.vars)...)

	// Set semantics over whole rows: hash the values, chain the rows of
	// one hash through next, compare values on every hash match.
	var h maphash.Hash
	heads := make(map[uint64]int32, len(merged)) // hash → 1 + newest kept row with it
	next := make([]int32, 0, len(merged))        // kept row → 1 + the previous one of its hash
	dedup := merged[:0]
rows:
	for _, row := range merged {
		h.Reset()
		for _, v := range row {
			if v != nil {
				h.WriteString(*v)
			}
			h.WriteByte(0xff) // in no UTF-8 text: keeps ("ab","c") and ("a","bc") apart
		}
		sum := h.Sum64()
		for k := heads[sum]; k != 0; k = next[k-1] {
			if sameRow(dedup[k-1], row) {
				continue rows
			}
		}
		dedup = append(dedup, row)
		next = append(next, heads[sum])
		heads[sum] = int32(len(dedup))
	}
	epoch := l.epoch
	if r.epoch > epoch {
		epoch = r.epoch
	}
	return &branchResult{vars: vars, rows: dedup, epoch: epoch}
}

// sameRow compares two rows of one schema value by value.
func sameRow(a, b []*string) bool {
	for i := range a {
		if (a[i] == nil) != (b[i] == nil) || a[i] != nil && *a[i] != *b[i] {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// server.Backend

// Query routes one query and returns the merged rows. The stats are
// synthesized — there is no single execution behind a scattered query:
// epoch, duration and result count are the merge's, and the fingerprint
// is the same normalized identity the shards computed, so the trailer
// cross-references the merged /v1/debug/statements view.
func (r *Router) Query(ctx context.Context, src string) (server.Cursor, error) {
	start := time.Now()
	res, err := r.execQuery(ctx, src)
	if err != nil {
		return nil, err
	}
	stats := &dualsim.ExecStats{
		Epoch: res.epoch, Duration: time.Since(start), Results: len(res.rows),
		Fingerprint: qstats.OfSource(src).ID,
	}
	return server.Materialized(res.vars, len(res.rows),
		func(dst []byte, i int) []byte { return wire.Values(res.rows[i]).AppendRow(dst) }, stats), nil
}

// Explain forwards to the owning shard when the whole query pushes down
// to one; a query that scatters has no single plan to show.
func (r *Router) Explain(ctx context.Context, src string, analyze bool) (*dualsim.Explain, error) {
	q, err := dualsim.ParseQuery(src)
	if err != nil {
		return nil, err
	}
	preds, hasVarPred := branchPreds(q.Expr)
	if hasVarPred {
		return nil, server.Errorf(http.StatusBadRequest, "variable predicates are not supported")
	}
	if len(preds) == 0 {
		return nil, server.Errorf(http.StatusBadRequest, "explain: the query mentions no predicate, so no shard owns it")
	}
	si := cluster.ShardOf(preds[0], len(r.shards))
	for _, p := range preds[1:] {
		if cluster.ShardOf(p, len(r.shards)) != si {
			return nil, server.Errorf(http.StatusBadRequest,
				"explain: the query's predicates live on more than one shard, so it has no single plan; the router explains only queries that push down to one shard (send each branch on its own, or ask a shard directly)")
		}
	}
	mode := "plan"
	if analyze {
		mode = "analyze"
	}
	return onShard(ctx, r, si, func(ep *endpoint) (*dualsim.Explain, error) {
		out, err := ep.c.Explain(ctx, src, mode)
		if err != nil {
			return nil, err
		}
		return out.Explain, nil
	})
}

// Batch routes each member independently, at most GOMAXPROCS at a time
// (the width of a session's batch pool): every member fans out over the
// shards itself, so an unbounded member count would turn one request
// into that many concurrent shard RPCs. failFast is a single-session
// notion and does not apply.
func (r *Router) Batch(ctx context.Context, srcs []string, _ bool) ([]server.BatchResult, error) {
	out := make([]server.BatchResult, len(srcs))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(srcs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i].Rows, out[i].Err = r.Query(ctx, srcs[i])
			}
		}()
	}
	for i := range srcs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Apply splits the delta by predicate placement. Writes go to primaries
// only, and the split is NOT atomic across shards: each slice is atomic
// on its own shard. A mid-apply reader can see shard A's new epoch with
// shard B's old one — the same boundary the per-branch routing already
// exposes, and why the response reports every slice's outcome
// individually.
func (r *Router) Apply(ctx context.Context, d dualsim.Delta) (any, uint64, error) {
	deltas, err := cluster.SplitDelta(d.Adds, d.Dels, len(r.shards))
	if err != nil {
		return nil, 0, err
	}
	out := wire.ClusterApplyResponse{}
	var epoch uint64
	for si, d := range deltas {
		if len(d.Adds) == 0 && len(d.Dels) == 0 {
			continue
		}
		resp, err := r.shards[si].primary().c.ApplyDelta(ctx, d)
		if err != nil {
			if ctx.Err() != nil {
				return nil, 0, ctx.Err()
			}
			return nil, 0, shardFailure(si, err)
		}
		out.Results = append(out.Results, wire.ShardApply{Shard: si, Stats: resp.Stats})
		epoch = max(epoch, resp.Stats.Epoch)
	}
	return &out, epoch, nil
}

// Snapshot aggregates the shards' shapes under the freshest epoch.
func (r *Router) Snapshot(ctx context.Context) (*wire.SnapshotResponse, error) {
	var out wire.SnapshotResponse
	for si := range r.shards {
		snap, err := onShard(ctx, r, si, func(ep *endpoint) (*wire.SnapshotResponse, error) {
			return ep.c.Snapshot(ctx)
		})
		if err != nil {
			return nil, err
		}
		out.Epoch = max(out.Epoch, snap.Epoch)
		out.Triples += snap.Triples
		out.Nodes += snap.Nodes
		out.Predicates += snap.Predicates
		out.OverlaySize += snap.OverlaySize
		out.Compactions += snap.Compactions
	}
	return &out, nil
}

// Statements serves the cluster-wide workload statistics view: every
// shard's /v1/debug/statements table, merged by normalized statement
// fingerprint — calls, rows and bucketed latencies sum across shards,
// memory peaks take the max, quantiles re-interpolate from the merged
// buckets. reset is forwarded, clearing every shard's table after this
// snapshot. One shard with no reachable endpoint fails the view (a
// partial merge would silently under-count).
func (r *Router) Statements(ctx context.Context, reset bool) (*wire.StatementsResponse, error) {
	groups := make([][]qstats.Statement, 0, len(r.shards))
	var evicted int64
	for si := range r.shards {
		resp, err := onShard(ctx, r, si, func(ep *endpoint) (*wire.StatementsResponse, error) {
			if reset {
				return ep.c.StatementsReset(ctx)
			}
			return ep.c.Statements(ctx)
		})
		if err != nil {
			return nil, err
		}
		groups = append(groups, resp.Statements)
		evicted += resp.Evicted
	}
	merged := qstats.Merge(groups...)
	if merged == nil {
		merged = []qstats.Statement{}
	}
	return &wire.StatementsResponse{
		Statements:    merged,
		Tracked:       len(merged),
		Evicted:       evicted,
		LatencyBounds: qstats.LatencyBounds,
		Shards:        len(groups),
	}, nil
}

// Epoch is the freshest epoch any endpoint has shown a probe.
func (r *Router) Epoch() uint64 {
	var m uint64
	for _, sh := range r.shards {
		m = max(m, sh.maxEpoch())
	}
	return m
}

// Ready: the router is routable when every shard has at least one
// routable endpoint.
func (r *Router) Ready() error {
	for si, sh := range r.shards {
		if len(sh.pick(r.cfg.maxLag)) == 0 {
			return fmt.Errorf("shard %d has no routable endpoint", si)
		}
	}
	return nil
}

func (r *Router) handleCluster(w http.ResponseWriter, req *http.Request) {
	out := wire.ClusterStatusResponse{Shards: len(r.shards)}
	for si, sh := range r.shards {
		st := wire.ShardStatus{Shard: si}
		for _, ep := range sh.eps {
			st.Endpoints = append(st.Endpoints, ep.status())
		}
		out.Status = append(out.Status, st)
	}
	r.WriteJSON(w, http.StatusOK, &out)
}
