// Package router is the scatter-gather backend of a sharded dualsimd
// cluster (dualsimd -route). It implements server.Backend, so the
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
//     predicate slices (GET /v1/export, each the DSIMSNP1 snapshot
//     container of one shard's slice, ids renumbered to the terms it
//     uses), unions them by dictionary (storage.Union) and evaluates the
//     branch locally with the ordinary dualsim pipeline.
//     Shipping partial RESULTS instead would be wrong: a cross-shard
//     join cannot be merged row-wise, and OPTIONAL over partial data
//     manufactures spurious unextended rows.
//     The assembled union is held, open as a session, keyed by the
//     shards and predicates it gathered and by each slice's validator
//     (the export's ETag, "<session nonce>-<epoch>"), together with the
//     slices it was built from. Every export is conditional on the
//     validators of the slices held for it, so a gather is one round
//     whatever it finds: a shard that answers 304 names a held slice,
//     the others send theirs. When one held union was built from
//     exactly the slices named, the branch runs on it; otherwise the
//     named slices are united anew (storage.Union modifies no part).
//     That is exact: a 304 proves that the same served session is at
//     the same epoch, so its slice is the one held.
//
// Deeper UNIONs stay inside their branch and are evaluated natively by
// whichever engine runs the branch. The branches are united like the
// engine's union operator unites them, and streamed: columns fold
// left-to-right (left vars, then unseen right vars); once every header
// is in (a shard sends its header with its first row or its trailer),
// branch 0's rows go out as they arrive, padded to the merged schema,
// then each later branch's, read ahead meanwhile. Only branches whose
// rows can collide (mayMeet) are deduplicated, by their cells' bytes.
// Rows are never decoded: the cursor writes each row's lines into the
// response itself. A pushed-down branch that meets no other, in a
// query without LIMIT/OFFSET, is relayed: its lines leave the wire as
// the shard wrote them, each checked as the client checks it, a term
// line copied, a row line renumbered from the term the branch started
// at and mapped onto the merged schema (wire.TermTable.RelayLine). Any
// other row is written by key (wire.TermWriter.AppendRow): a cell is
// read in place from a pushed-down branch's term table, or is a
// gathered node, rendered only when the response defines it. Either
// way a value two branches share is defined once in each. The epoch is
// the maximum over the shard epochs that answered — per-shard reads are
// individually epoch-consistent, and X-Dualsim-Epoch reports the
// freshest of them.
// A branch that fails before its header cancels the others and fails
// the query; one that fails later ends the answer with the error, with
// the router's own status while no row has gone out to the client.
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
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"maps"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dualsim"
	"dualsim/client"
	"dualsim/internal/cluster"
	"dualsim/internal/metrics"
	"dualsim/internal/server"
	"dualsim/internal/sparql"
	qstats "dualsim/internal/stats"
	"dualsim/internal/storage"
	"dualsim/internal/trace"
	"dualsim/internal/wire"
)

// probeTimeout bounds one /readyz probe round-trip.
const probeTimeout = 2 * time.Second

// probeEvery is the health-probe period of Run.
const probeEvery = time.Second

// Option configures a Router.
type Option func(*config) error

type config struct {
	maxLag   uint64
	protocol []server.Option
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

// WithProtocol hands settings to the protocol core the router is served
// by: server.WithDefaultTimeout, WithSlowQueryLog, the
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
		m = max(m, e.epoch)
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
	return append(ready, up...)
}

// Router fans queries over the shards of one cluster: a server.Backend
// with the protocol core that serves it embedded. Construct with New,
// start probes (Run) and mount it as an http.Handler.
type Router struct {
	*server.Core
	shards []*shard
	cfg    config

	// held are the assembled gathers; empty is the session over the empty
	// store a constant-free branch runs on.
	held  gatherCache
	empty *dualsim.DB
	idle  chan *lineBuf // line buffers of closed branches, for the next ones

	pushdowns *metrics.Counter
	gathers   *metrics.Counter
	reuses    *metrics.Counter
	failovers *metrics.Counter
	relayed   *metrics.Counter
	meeting   *metrics.Counter
}

// New builds a router over shardEndpoints: element i lists shard i's
// daemons, primary first, then read replicas. Shard count is fixed at
// construction — it must match the partitioning the daemons serve.
func New(shardEndpoints [][]string, opts ...Option) (*Router, error) {
	if len(shardEndpoints) == 0 {
		return nil, fmt.Errorf("router: no shards")
	}
	var cfg config
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	none, err := storage.Union()
	if err != nil {
		return nil, err
	}
	empty, err := dualsim.Open(none)
	if err != nil {
		return nil, err
	}
	r := &Router{cfg: cfg, empty: empty, idle: make(chan *lineBuf, idleLineBufs)}
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
	r.reuses = reg.Counter("dualsimrouter_gather_reuses_total", "gathers answered on a held union: the shards named exactly its slices")
	r.failovers = reg.Counter("dualsimrouter_failovers_total", "reads failed over to another endpoint")
	r.relayed = reg.Counter("dualsimrouter_relayed_rows_total", "rows of pushed-down branches that meet no other, relayed as their shard wrote them")
	r.meeting = reg.Counter("dualsimrouter_meeting_rows_total", "rows of branches that may meet another, read by their cells and deduplicated")
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

// Run probes all endpoints once a second until ctx cancels (first round
// immediately).
func (r *Router) Run(ctx context.Context) error {
	t := time.NewTicker(probeEvery)
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

// owners maps each shard that holds a predicate of the branch to those
// predicates, in first-appearance order. A variable predicate is
// unroutable (and rejected by the solver core anyway).
func (r *Router) owners(e sparql.Expr) (map[int][]string, error) {
	owners := make(map[int][]string)
	for _, tp := range sparql.Triples(e) {
		if tp.P.IsVar() || tp.P.Const == nil {
			return nil, server.Errorf(http.StatusBadRequest, "variable predicates are not supported")
		}
		p := tp.P.Const.Value
		if si := cluster.ShardOf(p, len(r.shards)); !slices.Contains(owners[si], p) {
			owners[si] = append(owners[si], p)
		}
	}
	return owners, nil
}

// Query starts every branch at once and returns the cursor once every
// branch's header is in. A LIMIT travels with each branch — truncating
// a branch to limit+offset distinct rows cannot starve the union, whose
// dedup only shrinks row counts — and is re-applied by drain. The stats
// are the cursor's, with the normalized fingerprint the shards computed,
// so the trailer cross-references the merged /v1/debug/statements view.
func (r *Router) Query(ctx context.Context, src string) (server.Cursor, error) {
	start := time.Now()
	q, err := dualsim.ParseQuery(src)
	if err != nil {
		return nil, err
	}
	exprs := topBranches(q.Expr)
	meets := mayMeet(exprs)
	ctx, cancel := context.WithCancelCause(ctx)
	u := &union{rt: r, ctx: ctx, cancel: cancel, start: start,
		stats: &dualsim.ExecStats{Fingerprint: qstats.Of(q).ID}}
	parent := trace.SpanFromContext(ctx)
	var headers sync.WaitGroup
	for i, e := range exprs {
		b := &branch{
			meets: meets[i],
			keep:  meets[i] && slices.Contains(meets[i+1:], true),
			sp:    parent.StartChild("branch"),
			done:  make(chan struct{}),
		}
		b.sp.SetAttr("branch", strconv.Itoa(i))
		u.branches = append(u.branches, b)
		headers.Add(1)
		go func() {
			defer close(b.done)
			if b.rows, b.err = r.open(trace.ContextWithSpan(ctx, b.sp), e, q); b.err != nil {
				cancel(b.err) // before Done, so that Query sees it
			}
			headers.Done()
			// Branch 0 is read as it arrives; a later one reads ahead until
			// the cursor takes its rows over.
			if i == 0 || b.err != nil {
				return
			}
			for !b.stop.Load() && b.rows.fetch() {
			}
			if err := b.rows.failed(); err != nil {
				cancel(err) // a branch that breaks off fails the query at once
			}
		}()
	}
	headers.Wait()
	if err := context.Cause(ctx); err != nil {
		u.Close()
		return nil, err
	}
	for _, b := range u.branches {
		for _, v := range b.rows.Vars() {
			if !slices.Contains(u.vars, v) {
				u.vars = append(u.vars, v)
			}
		}
		u.stats.Epoch = max(u.stats.Epoch, b.rows.Epoch())
	}
	windowed := q.Limit > 0 || q.Offset > 0
	for _, b := range u.branches {
		for _, v := range u.vars {
			b.cols = append(b.cols, slices.Index(b.rows.Vars(), v))
		}
		if sh, ok := b.rows.(*shardRows); ok && !b.meets && !windowed {
			b.relay = sh
		}
	}
	u.seen = newSeenSet(len(u.vars))
	if windowed {
		if err := u.drain(q.Limit, q.Offset); err != nil {
			u.Close()
			return nil, err
		}
	}
	return u, nil
}

// mayMeet reports which branches have rows that can equal another
// branch's once padded; only those need the dedup (a branch's own rows
// are a set). A row of A binds all of mand(A) (Sect. 4.3), a padded row
// of B nothing outside vars(B): they can meet only if mand(A) ⊆ vars(B)
// and mand(B) ⊆ vars(A).
func mayMeet(branches []sparql.Expr) []bool {
	covers := func(a, b sparql.Expr) bool {
		vars := sparql.VarSet(b)
		for v := range sparql.Mand(a) {
			if !vars[v] {
				return false
			}
		}
		return true
	}
	out := make([]bool, len(branches))
	for i := range branches {
		for j := i + 1; j < len(branches); j++ {
			if covers(branches[i], branches[j]) && covers(branches[j], branches[i]) {
				out[i], out[j] = true, true
			}
		}
	}
	return out
}

// open starts a branch of q and returns its answer once its header is in.
func (r *Router) open(ctx context.Context, b sparql.Expr, q *dualsim.Query) (rows, error) {
	owners, err := r.owners(b)
	if err != nil {
		return nil, err
	}
	src := "SELECT * WHERE " + b.String()
	if q.Limit > 0 {
		// Single-shard branches carry the bound all the way to the
		// shard's own executor (which pushes it further down its plan);
		// gather branches bound the local evaluation the same way.
		src += fmt.Sprintf(" LIMIT %d", q.Limit+q.Offset)
	}
	sp := trace.SpanFromContext(ctx)
	switch len(owners) {
	case 0:
		// A constant-free pattern touches no shard; evaluate over an
		// empty scratch store for exact (usually empty) semantics.
		return openLocal(ctx, r.empty, src, 0)
	case 1:
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
// error, 5xx) rather than the request's (judged: a 4xx, the shard's
// own 504, a failed stream) or our own context expiring. A failed
// endpoint is marked down until a probe revives it.
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
		if judged(err) {
			break // the shard answered and judged the request; it is not down
		}
		ep.markDown(err)
	}
	return zero, shardFailure(si, lastErr)
}

// verdict returns err's reply when it is the shard's verdict on the
// request, to be relayed as it is: a 4xx, or a 504, the shard's own
// deadline expiring before the first row.
func verdict(err error) *client.APIError {
	var ae *client.APIError
	if errors.As(err, &ae) && (ae.StatusCode < 500 || ae.StatusCode == http.StatusGatewayTimeout) {
		return ae
	}
	return nil
}

// judged reports whether err is an endpoint's verdict on the request (a
// verdict, a failed row stream) rather than the endpoint failing.
func judged(err error) bool {
	var se *client.StreamError
	return verdict(err) != nil || errors.As(err, &se)
}

// shardFailure maps a shard's terminal error onto the router's reply.
func shardFailure(si int, err error) error {
	if err == nil {
		return server.Errorf(http.StatusServiceUnavailable, "shard %d has no live endpoint", si)
	}
	if ae := verdict(err); ae != nil {
		return server.Errorf(ae.StatusCode, "shard %d: %s", si, ae.Message)
	}
	return server.Errorf(http.StatusBadGateway, "shard %d: %v", si, err)
}

// pushDown sends the branch verbatim to the single shard owning all its
// predicates and returns the shard's row stream once its header is in.
func (r *Router) pushDown(ctx context.Context, si int, src string) (rows, error) {
	// A traced fan-out propagates its identity on the wire: the shard
	// Continues the trace under the same ID and ships its pipeline +
	// operator subtree back in the stats trailer, which stitches under
	// this branch's span — one tree shows the whole cluster request.
	sp := trace.SpanFromContext(ctx)
	var qopts []client.QueryOpt
	if tp := sp.Traceparent(); tp != "" {
		qopts = append(qopts, client.Trace(), client.Traceparent(tp))
	}
	return onShard(ctx, r, si, func(ep *endpoint) (rows, error) {
		st, err := ep.c.QueryStream(ctx, src, qopts...)
		if err != nil {
			return nil, err
		}
		sp.SetAttr("endpoint", ep.url)
		return &shardRows{Stream: st, lineBuf: r.getLineBuf(), rt: r, si: si, sp: sp}, nil
	})
}

// The gathers a Router holds are bounded twice, least recently used
// evicted first: by count (each one is a session with its own plan
// cache, of gatherPlans entries) and by the triples of their unions
// (the parts an entry keeps hold as many again). A union larger than
// heldTriples is queried once and not held.
const (
	heldGathers = 16
	heldTriples = 1 << 19
	gatherPlans = 16
)

// gatherKey names what a gather fetches: the owning shards, ascending,
// and each one's predicates, sorted.
type gatherKey struct {
	shards []int
	preds  [][]string
}

func keyOf(owners map[int][]string) gatherKey {
	var k gatherKey
	for si := range owners {
		k.shards = append(k.shards, si)
	}
	sort.Ints(k.shards)
	for _, si := range k.shards {
		k.preds = append(k.preds, slices.Sorted(slices.Values(owners[si])))
	}
	return k
}

func (k gatherKey) equal(o gatherKey) bool {
	return slices.Equal(k.shards, o.shards) && slices.EqualFunc(k.preds, o.preds, slices.Equal[[]string])
}

// heldGather is one assembled gather: its slices as they were decoded
// (storage.Union modifies no part, so a later gather of the key may
// unite one again) and their union, open as a session whose plan cache
// turns repeated texts into hits.
type heldGather struct {
	key   gatherKey
	tags  []string         // tags[k]: the validator slice k came with
	parts []*dualsim.Store // parts[k]: slice k
	db    *dualsim.DB
}

// triples is what the gather counts against heldTriples.
func (h *heldGather) triples() int { return h.db.Store().NumTriples() }

// gatherCache holds assembled gathers, most recently used first, and
// the sum of their triples. An evicted session is dropped, not closed:
// it is in memory only, and a query may still be reading it.
type gatherCache struct {
	mu      sync.Mutex
	held    []*heldGather
	triples int
}

// heldPart is a slice a held gather was assembled from, and its
// validator.
type heldPart struct {
	tag string
	st  *dualsim.Store
}

// parts returns, per slice of key, every distinct held part of it.
func (c *gatherCache) parts(key gatherKey) [][]heldPart {
	out := make([][]heldPart, len(key.shards))
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, h := range c.held {
		if !h.key.equal(key) {
			continue
		}
		for k, tag := range h.tags {
			if !slices.ContainsFunc(out[k], func(p heldPart) bool { return p.tag == tag }) {
				out[k] = append(out[k], heldPart{tag, h.parts[k]})
			}
		}
	}
	return out
}

// lookup returns the gather of key assembled from slices with exactly
// these validators, and marks it most recently used.
func (c *gatherCache) lookup(key gatherKey, tags []string) *heldGather {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, h := range c.held {
		if h.key.equal(key) && slices.Equal(h.tags, tags) {
			copy(c.held[1:i+1], c.held[:i])
			c.held[0] = h
			return h
		}
	}
	return nil
}

// add holds h as the most recently used gather, in place of one of the
// same slices, and evicts from the least recently used end until both
// bounds hold.
func (c *gatherCache) add(h *heldGather) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.held = slices.DeleteFunc(c.held, func(o *heldGather) bool {
		if o.key.equal(h.key) && slices.Equal(o.tags, h.tags) {
			c.triples -= o.triples()
			return true
		}
		return false
	})
	c.held = slices.Insert(c.held, 0, h)
	c.triples += h.triples()
	for n := len(c.held); n > 0 && (n > heldGathers || c.triples > heldTriples); n-- {
		c.triples -= c.held[n-1].triples()
		c.held[n-1] = nil
		c.held = c.held[:n-1]
	}
}

// gather evaluates a branch whose predicates span shards over the union
// of the owning shards' predicate slices. It asks every owning shard
// once, listing the validators of the slices held for it. When one held
// gather was built from exactly the slices the shards name, the branch
// runs on its session. Otherwise a shard that answered 304 named a held
// slice, the others sent theirs, and the union of those is assembled,
// held and queried.
func (r *Router) gather(ctx context.Context, owners map[int][]string, src string) (rows, error) {
	key := keyOf(owners)
	held := r.held.parts(key)
	got, err := r.export(ctx, key, held)
	if err != nil {
		return nil, err
	}
	var epoch uint64
	h := &heldGather{key: key, tags: make([]string, len(got)), parts: make([]*dualsim.Store, len(got))}
	for k, f := range got {
		h.tags[k], h.parts[k], epoch = f.ETag, f.Store, max(epoch, f.Epoch)
	}
	if prev := r.held.lookup(key, h.tags); prev != nil {
		r.reuses.Inc()
		return openLocal(ctx, prev.db, src, epoch)
	}
	for k, f := range got {
		if !f.NotModified {
			continue
		}
		i := slices.IndexFunc(held[k], func(p heldPart) bool { return p.tag == f.ETag })
		if i < 0 {
			return nil, server.Errorf(http.StatusBadGateway, "shard %d: export answered 304 for validator %s, which was not sent", key.shards[k], f.ETag)
		}
		h.parts[k] = held[k][i].st
	}
	st, err := storage.Union(h.parts...)
	if err != nil {
		return nil, server.Errorf(http.StatusBadGateway, "assembling gather store: %v", err)
	}
	if h.db, err = dualsim.Open(st, dualsim.WithPlanCache(gatherPlans)); err != nil {
		return nil, server.Errorf(http.StatusBadGateway, "opening gather session: %v", err)
	}
	r.held.add(h)
	return openLocal(ctx, h.db, src, epoch)
}

// export sends every owning shard of key one export of its slice,
// conditional on the validators of held[k], concurrently; the first
// failure cancels the others.
func (r *Router) export(ctx context.Context, key gatherKey, held [][]heldPart) ([]*client.ExportedSlice, error) {
	got := make([]*client.ExportedSlice, len(key.shards))
	sp := trace.SpanFromContext(ctx)
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	var wg sync.WaitGroup
	for k, si := range key.shards {
		tags := make([]string, len(held[k]))
		for i, p := range held[k] {
			tags[i] = p.tag
		}
		wg.Add(1)
		go func(k, si int) {
			defer wg.Done()
			e0 := time.Now()
			f, err := onShard(ctx, r, si, func(ep *endpoint) (*client.ExportedSlice, error) {
				return ep.c.Export(ctx, key.preds[k], tags...)
			})
			if err != nil {
				cancel(err)
				return
			}
			got[k] = f
			if es := sp.Record("export", time.Since(e0)); es != nil {
				es.SetAttr("shard", strconv.Itoa(si))
				triples := 0
				if f.NotModified {
					es.SetAttr("unchanged", "true")
				} else {
					triples = f.Store.NumTriples()
				}
				es.Add("triples", int64(triples))
				es.Add("bytes", int64(f.Size))
			}
		}(k, si)
	}
	wg.Wait()
	return got, context.Cause(ctx)
}

// ---------------------------------------------------------------------------
// The union cursor

// rows is one branch's open answer. A cell is a number (a shard stream's
// term, a gathered node, or dualsim.Unbound) read where the branch keeps
// it: nothing is copied out or rendered ahead of the response.
type rows interface {
	Vars() []string
	Epoch() uint64
	fetch() bool               // reads one more row or line ahead; false once the source is exhausted
	failed() error             // once fetch returned false: why, mapped onto the reply; nil at a clean end
	next() bool                // moves to the next row, read ahead or not
	row(dst []uint32) []uint32 // appends the current row's cells
	cellSource
	end() error // once next (or relay) returned false: the failure, mapped onto the reply
	Close() error
}

// lineBuf is what a pushed-down branch reads its shard stream with: the
// lines it reads ahead, and the term table that reads them.
type lineBuf struct {
	lines []byte
	table wire.TermTable
}

// A router keeps up to idleLineBufs line buffers of closed branches for
// its next ones, each with at most maxIdleLines bytes of lines and a
// table of at most maxIdleLines bytes, so one large branch does not stay
// resident.
const (
	idleLineBufs = 4
	maxIdleLines = 1 << 20
)

// getLineBuf returns an idle line buffer, or a new one.
func (r *Router) getLineBuf() *lineBuf {
	select {
	case lb := <-r.idle:
		return lb
	default:
		return new(lineBuf)
	}
}

// putLineBuf keeps lb for a later branch, if it is small and a slot is
// free.
func (r *Router) putLineBuf(lb *lineBuf) {
	if cap(lb.lines) > maxIdleLines || lb.table.Size() > maxIdleLines {
		return
	}
	lb.lines = lb.lines[:0]
	lb.table.Reset()
	select {
	case r.idle <- lb:
	default:
	}
}

// shardRows is a pushed-down branch's answer: the shard's row stream,
// read line by line. A later branch reads its lines ahead as they came;
// the cursor reads them, and then the stream's, through the table,
// which keeps each cell until the branch is closed (next), or which
// relays them, keeping none (relay).
type shardRows struct {
	*client.Stream
	*lineBuf
	rt  *Router
	si  int
	sp  *trace.Span
	off int   // lines[:off] have been read
	bad error // the line the table refused
}

func (s *shardRows) fetch() bool {
	line, ok := s.NextLine()
	if ok {
		s.lines = append(append(grow(s.lines, len(line)+1), line...), '\n')
	}
	return ok
}

func (s *shardRows) failed() error {
	if err := s.Err(); err != nil {
		return shardFailure(s.si, err)
	}
	return nil
}

// line returns the next line read ahead, then the stream's.
//
//dualsim:hotpath
func (s *shardRows) line() ([]byte, bool) {
	if s.off < len(s.lines) {
		rest := s.lines[s.off:]
		i := bytes.IndexByte(rest, '\n')
		s.off += i + 1
		return rest[:i], true
	}
	return s.NextLine()
}

//dualsim:hotpath
func (s *shardRows) next() bool {
	for s.bad == nil {
		line, ok := s.line()
		if !ok {
			return false
		}
		kind, err := s.table.Read(line, len(s.Vars()), false)
		if err != nil {
			s.bad = err
			return false
		}
		if kind == wire.LineRow {
			return true
		}
	}
	return false
}

// relay appends the lines up to the branch's next row to dst as lines
// of the response w writes: each term line as the shard wrote it, and
// the row line with its terms numbered from base and its columns mapped
// by cols (wire.TermTable.RelayLine). It returns false at the end of the
// stream, or at a line the table refuses, which it does not write.
//
//dualsim:hotpath
func (s *shardRows) relay(dst []byte, w *wire.TermWriter, cols []int, base uint32) ([]byte, bool) {
	for s.bad == nil {
		line, ok := s.line()
		if !ok {
			return dst, false
		}
		var kind int
		var err error
		if dst, kind, err = s.table.RelayLine(dst, line, len(s.Vars()), cols, base, w); err != nil {
			s.bad = err
			return dst, false
		}
		if kind == wire.LineRow {
			return dst, true
		}
	}
	return dst, false
}

//dualsim:hotpath
func (s *shardRows) row(dst []uint32) []uint32 {
	for _, k := range s.table.Refs() {
		dst = append(dst, uint32(k)) // -1 is Unbound
	}
	return dst
}

//dualsim:hotpath
func (s *shardRows) appendCell(dst []byte, c uint32) []byte {
	return append(dst, s.table.Cell(int32(c))...)
}

// end stitches the shard's span tree under the branch span. Rows may
// have gone out, so a stream that breaks off is not failed over; the
// next read of a dead endpoint marks it down (onShard).
func (s *shardRows) end() error {
	if s.bad != nil {
		return shardFailure(s.si, fmt.Errorf("bad stream line: %w", s.bad))
	}
	if err := s.failed(); err != nil {
		return err
	}
	if stats := s.Stats(); stats != nil {
		s.sp.Attach(stats.Trace)
	}
	return nil
}

// Close closes the stream and hands the line buffer back.
func (s *shardRows) Close() error {
	err := s.Stream.Close()
	if s.lineBuf != nil {
		s.rt.putLineBuf(s.lineBuf)
		s.lineBuf = nil
	}
	return err
}

// localRows is a gathered branch's answer: a session's cursor over the
// snapshot it pinned, whose node ids are its cells.
type localRows struct {
	*dualsim.Rows
	st    *dualsim.Store
	epoch uint64
	ahead []uint32 // the n rows read ahead, flat; grows by doubling
	n, r  int      // rows read ahead, and rows of them read
	cur   []uint32 // the current row
}

// openLocal runs a branch on a gather's session, or the empty one.
func openLocal(ctx context.Context, db *dualsim.DB, src string, epoch uint64) (rows, error) {
	snap := db.Snapshot()
	rs, err := snap.QueryStream(ctx, src)
	if err != nil {
		return nil, err
	}
	return &localRows{Rows: rs, st: snap.Store(), epoch: epoch}, nil
}

func (l *localRows) Epoch() uint64 { return l.epoch }
func (l *localRows) failed() error { return l.Err() }
func (l *localRows) end() error    { return l.Err() }

func (l *localRows) fetch() bool {
	if !l.Next() {
		return false
	}
	l.ahead = append(grow(l.ahead, len(l.Row())), l.Row()...)
	l.n++
	return true
}

//dualsim:hotpath
func (l *localRows) next() bool {
	if l.r < l.n {
		w := len(l.Vars())
		l.cur = l.ahead[l.r*w : (l.r+1)*w]
		l.r++
		return true
	}
	if !l.Next() {
		return false
	}
	l.cur = l.Row()
	return true
}

//dualsim:hotpath
func (l *localRows) row(dst []uint32) []uint32 { return append(dst, l.cur...) }

//dualsim:hotpath
func (l *localRows) appendCell(dst []byte, c uint32) []byte {
	return wire.AppendTerm(dst, l.st.Term(c))
}

// branch is one top-level UNION branch: its answer and its columns in
// the merged schema. Its goroutine reads ahead until the cursor takes
// its rows over.
type branch struct {
	rows  rows // nil if the branch failed to start
	sp    *trace.Span
	cols  []int      // cols[j]: the branch's column of merged column j, -1 if none
	meets bool       // its rows may equal another branch's (mayMeet)
	keep  bool       // a later branch meets it: its rows go into the seen set
	relay *shardRows // set when the branch is relayed: pushed down, meeting none, no window
	base  uint32     // while relaying: the response's number of the branch's term 0

	stop  atomic.Bool   // the cursor takes the rows over
	done  chan struct{} // closed when the branch's goroutine is gone
	ended bool          // its rows ended, and err says why
	err   error
}

// union is a routed query's cursor: the branches' rows in branch order,
// padded to the merged schema. A relayed branch's rows go out as the
// shard wrote them (relay); any other row is keyed: a key is a cell's
// branch and its number there, so a response renders each cell once,
// from where its branch keeps it.
type union struct {
	rt     *Router
	ctx    context.Context
	cancel context.CancelCauseFunc
	start  time.Time
	stats  *dualsim.ExecStats

	vars     []string
	branches []*branch
	b        int // the branch being read
	row      []uint32
	keys     []wire.Key
	window   [][]wire.Key // a windowed query's rows left to serve
	n        int          // rows served
	relayed  int          // of them, relayed
	meeting  int          // rows read from meeting branches
	err      error
	closed   bool

	seen  seenSet  // the kept branches' rows
	nums  []uint32 // while fresh checks the current row: its cells, Unbound for unbound
	cells []byte   // and the row rendered
}

func (u *union) Vars() []string            { return u.vars }
func (u *union) Epoch() uint64             { return u.stats.Epoch }
func (u *union) Err() error                { return u.err }
func (u *union) Stats() *dualsim.ExecStats { return u.stats }

//dualsim:hotpath
func (u *union) AppendCell(dst []byte, k wire.Key) []byte {
	return u.branches[k>>32].rows.appendCell(dst, uint32(k))
}

// NextLines moves to the union's next row and appends its lines to
// dst: a relayed branch's as the shard wrote them, with its terms
// numbered from the response's count when the cursor entered the
// branch; any other row's through w's memo, from its keys.
//
//dualsim:hotpath
func (u *union) NextLines(dst []byte, w *wire.TermWriter) ([]byte, bool) {
	for {
		if u.next() {
			u.n++
			return w.AppendRow(dst, u.keys, u), true
		}
		if u.err != nil || u.b == len(u.branches) {
			return dst, false
		}
		b := u.branches[u.b] // next stopped at a relayed branch
		if u.enter(b) {
			b.base = w.Terms()
		}
		var ok bool
		if dst, ok = b.relay.relay(dst, w, b.cols, b.base); ok {
			u.n++
			u.relayed++
			return dst, true
		}
		u.leave(b)
	}
}

// next moves to the union's next keyed row and leaves its keys in
// keys: a windowed query's next row, or the next row of the branches
// from the one being read on. It returns false at the end of the union,
// on a failure, or at a relayed branch, which NextLines reads.
//
//dualsim:hotpath
func (u *union) next() bool {
	if u.window != nil {
		if len(u.window) == 0 {
			return false
		}
		u.keys, u.window = u.window[0], u.window[1:]
		return true
	}
	for u.err == nil && u.b < len(u.branches) {
		b := u.branches[u.b]
		if b.relay != nil {
			return false
		}
		u.enter(b)
		if !b.rows.next() {
			u.leave(b)
			continue
		}
		u.row = b.rows.row(u.row[:0])
		u.keys = u.keys[:0]
		for _, c := range b.cols {
			k := wire.NoKey
			if c >= 0 && u.row[c] != dualsim.Unbound {
				k = wire.Key(u.b)<<32 | wire.Key(u.row[c])
			}
			u.keys = append(u.keys, k)
		}
		if !b.meets {
			return true
		}
		if u.meeting++; u.fresh(b) {
			return true
		}
	}
	return false
}

// enter takes b's rows over from its goroutine the first time the
// cursor reads b, so that b reads what it read ahead first, and reports
// whether it did.
func (u *union) enter(b *branch) bool {
	if b.stop.Load() {
		return false
	}
	b.stop.Store(true)
	<-b.done
	return true
}

// leave ends the branch being read, whose rows have ended, and its
// span: the union fails with its error, or moves on to the next branch.
func (u *union) leave(b *branch) {
	b.ended, b.err = true, b.rows.end()
	b.sp.End()
	if b.err != nil {
		u.err = cmp.Or(context.Cause(u.ctx), b.err) // what cancelled the query comes first
		return
	}
	u.b++
}

// fresh reports whether the current row of a meeting branch is in none
// of the kept branches' rows, byte for byte, and keeps it if b is kept.
func (u *union) fresh(b *branch) bool {
	if len(u.seen.hashes) == 0 && !b.keep {
		return true
	}
	u.nums = u.nums[:0]
	for _, k := range u.keys {
		u.nums = append(u.nums, uint32(k)) // NoKey is Unbound
	}
	u.cells = appendRow(u.cells[:0], b.rows, u.nums)
	h, dup := u.seen.find(u.cells)
	if !dup && b.keep {
		u.seen.add(h, b.rows, u.nums)
	}
	return !dup
}

// cellSource renders the cells a branch numbers.
type cellSource interface {
	appendCell(dst []byte, c uint32) []byte
}

// appendRow appends a row's cells as src renders them, each followed by
// 0xff, which is in no cell: ("ab","c") and ("a","bc") stay apart.
//
//dualsim:hotpath
func appendRow(dst []byte, src cellSource, row []uint32) []byte {
	for _, c := range row {
		if c != dualsim.Unbound {
			dst = src.appendCell(dst, c)
		}
		dst = append(dst, 0xff)
	}
	return dst
}

// seenSet holds the rows of the branches a later branch meets as the
// cell numbers their branches gave them, and finds a row among them by
// its rendered cells. An open-addressed table of row indexes is probed
// by the 64-bit hash of those cells; a kept row whose hash matches is
// rendered through its branch and compared byte for byte, so a hash
// never decides and the dedup is exact. Each kept row's whole hash is
// kept beside its cells, so the table grows without rendering a row
// again. A kept branch stays open until the cursor closes, so its
// cells can be rendered until then.
type seenSet struct {
	seed   maphash.Seed
	hash   func(maphash.Seed, []byte) uint64 // maphash.Bytes; a test may make every probe collide
	width  int
	cells  []uint32  // kept row i: cells[i*width : (i+1)*width]
	hashes []uint64  // kept row i: the hash of its rendered cells
	runs   []seenRun // the branch of each run of kept rows, in row order
	slots  []uint32  // a kept row's index plus one, 0 for none; a power of two long, at most 3/4 full
	row    []byte    // a kept row, rendered for a probe
}

// seenRun is a run of kept rows of one branch, from its first row on.
type seenRun struct {
	from int
	src  cellSource
}

func newSeenSet(width int) seenSet {
	return seenSet{seed: maphash.MakeSeed(), hash: maphash.Bytes, width: width}
}

// find returns the hash of a row's rendered cells and whether a kept
// row renders to the same bytes.
func (s *seenSet) find(cells []byte) (uint64, bool) {
	h := s.hash(s.seed, cells)
	if len(s.hashes) == 0 {
		return h, false
	}
	mask := len(s.slots) - 1
	for i := int(h) & mask; s.slots[i] != 0; i = (i + 1) & mask {
		if r := int(s.slots[i]) - 1; s.hashes[r] == h && bytes.Equal(s.render(r), cells) {
			return h, true
		}
	}
	return h, false
}

// render renders kept row i through the branch that gave it.
func (s *seenSet) render(i int) []byte {
	r := len(s.runs) - 1
	for s.runs[r].from > i {
		r--
	}
	s.row = appendRow(s.row[:0], s.runs[r].src, s.cells[i*s.width:(i+1)*s.width])
	return s.row
}

// add keeps a row that find did not find: its cells as src numbers
// them, and h, the hash find returned.
func (s *seenSet) add(h uint64, src cellSource, row []uint32) {
	n := len(s.hashes)
	if len(s.runs) == 0 || s.runs[len(s.runs)-1].src != src {
		s.runs = append(s.runs, seenRun{from: n, src: src})
	}
	s.cells = append(grow(s.cells, len(row)), row...)
	s.hashes = append(grow(s.hashes, 1), h)
	if 4*(n+1) <= 3*len(s.slots) {
		s.insert(n)
		return
	}
	s.slots = make([]uint32, max(2*len(s.slots), 64))
	for r := range s.hashes {
		s.insert(r)
	}
}

// insert puts kept row r into the first free slot from its hash on.
func (s *seenSet) insert(r int) {
	mask := len(s.slots) - 1
	i := int(s.hashes[r]) & mask
	for s.slots[i] != 0 {
		i = (i + 1) & mask
	}
	s.slots[i] = uint32(r) + 1
}

// grow returns s with room for n more elements. A slice that must grow
// doubles its length: append's quarter steps would copy a long buffer
// about five times over.
func grow[T any](s []T, n int) []T {
	if len(s)+n > cap(s) {
		grown := make([]T, len(s), max(len(s)+n, 2*len(s), 64))
		copy(grown, s)
		s = grown
	}
	return s
}

// drain reads a LIMIT/OFFSET query's union and keeps its window, in a
// canonical order that a repeated query does not flap across: unbound
// first, then decoded text, column by column; each value decoded once.
func (u *union) drain(limit, offset int) error {
	all := [][]wire.Key{}
	for u.next() {
		all = append(all, slices.Clone(u.keys))
	}
	if u.err != nil {
		return u.err
	}
	values := map[wire.Key]string{wire.NoKey: ""} // a value is never empty
	value := func(k wire.Key) string {
		if _, ok := values[k]; !ok {
			values[k] = wire.Value(string(u.AppendCell(nil, k)))
		}
		return values[k]
	}
	sort.Slice(all, func(i, j int) bool {
		for c, x := range all[i] {
			if vx, vy := value(x), value(all[j][c]); vx != vy {
				return vx < vy
			}
		}
		return false
	})
	lo, hi := min(offset, len(all)), len(all)
	if limit > 0 {
		hi = min(hi, lo+limit)
	}
	u.window = all[lo:hi]
	return nil
}

// Close cancels the branches, waits for their goroutines and closes
// their streams; the stats are final afterwards.
func (u *union) Close() {
	if u.closed {
		return
	}
	u.closed = true
	u.cancel(nil)
	for _, b := range u.branches {
		b.stop.Store(true)
		<-b.done
		if b.rows != nil {
			_ = b.rows.Close()
		}
		if !b.ended {
			b.sp.End()
		}
	}
	u.stats.Duration, u.stats.Results = time.Since(u.start), u.n
	u.rt.relayed.Add(int64(u.relayed))
	u.rt.meeting.Add(int64(u.meeting))
}

// ---------------------------------------------------------------------------
// server.Backend

// Explain forwards to the owning shard when the whole query pushes down
// to one; a query that scatters has no single plan to show.
func (r *Router) Explain(ctx context.Context, src string, analyze bool) (*dualsim.Explain, error) {
	q, err := dualsim.ParseQuery(src)
	if err != nil {
		return nil, err
	}
	owners, err := r.owners(q.Expr)
	switch {
	case err != nil:
		return nil, err
	case len(owners) == 0:
		return nil, server.Errorf(http.StatusBadRequest, "explain: the query mentions no predicate, so no shard owns it")
	case len(owners) > 1:
		return nil, server.Errorf(http.StatusBadRequest,
			"explain: the query's predicates live on more than one shard, so it has no single plan; the router explains only queries that push down to one shard (send each branch on its own, or ask a shard directly)")
	}
	mode := "plan"
	if analyze {
		mode = "analyze"
	}
	si := slices.Collect(maps.Keys(owners))[0]
	return onShard(ctx, r, si, func(ep *endpoint) (*dualsim.Explain, error) {
		out, err := ep.c.Explain(ctx, src, mode)
		if err != nil {
			return nil, err
		}
		return out.Explain, nil
	})
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

// Statements serves the cluster-wide workload statistics view: the
// /v1/debug/statements table of every live endpoint of every shard —
// replicas too, since reads alternate between a shard's endpoints —
// merged by normalized statement fingerprint: calls, rows and bucketed
// latencies sum, memory peaks take the max, quantiles re-interpolate
// from the merged buckets. reset is forwarded to each of them, clearing
// its table after this snapshot. An endpoint that fails is marked down
// like a failed read; a shard none of whose endpoints answers fails the
// view (a partial merge would silently under-count).
func (r *Router) Statements(ctx context.Context, reset bool) (*wire.StatementsResponse, error) {
	var groups [][]qstats.Statement
	var evicted int64
	for si, sh := range r.shards {
		answered := false
		var lastErr error
		for _, ep := range sh.eps {
			if !ep.status().Up {
				continue
			}
			read := ep.c.Statements
			if reset {
				read = ep.c.StatementsReset
			}
			resp, err := read(ctx)
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			if err != nil {
				if lastErr = err; !judged(err) {
					ep.markDown(err)
				}
				continue
			}
			groups = append(groups, resp.Statements)
			evicted += resp.Evicted
			answered = true
		}
		if !answered {
			return nil, shardFailure(si, lastErr)
		}
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
		Shards:        len(r.shards),
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
