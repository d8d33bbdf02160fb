package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"dualsim"
	"dualsim/internal/metrics"
	"dualsim/internal/persist"
	qstats "dualsim/internal/stats"
	"dualsim/internal/storage"
	"dualsim/internal/trace"
	"dualsim/internal/wire"
)

// Server is the protocol core over one local dualsim session — the
// daemon side of the protocol. Beside the core's routes it serves the
// ones that need the session itself (compaction, checkpoints, the
// router's predicate export, the replication tail). Safe for concurrent
// use; construct with New and mount Handler (or the Server itself, it
// implements http.Handler).
type Server struct {
	*Core
	be *local

	// topStmts memoizes the sorted statement snapshot for the top-rank
	// /metrics gauges.
	topStmts topCache

	checkpoints *metrics.Counter
	walStreams  *metrics.Counter
	exports     *metrics.Counter
}

// local is the Backend over a *dualsim.DB.
type local struct {
	db    atomic.Pointer[dualsim.DB] // swappable: a replica re-bootstrap replaces the session
	stmts *qstats.Store              // nil when WithStatementStats(0) disabled it

	// stageSeconds are the per-pipeline-stage latency histograms, keyed
	// by stage name; fixed at construction so Observe stays lock-free.
	stageSeconds map[string]*metrics.Histogram
	solverRounds *metrics.Counter
}

// session returns the current session. Callers resolve it once per
// request; a concurrent SwapDB affects only later requests.
func (b *local) session() *dualsim.DB { return b.db.Load() }

// SwapDB atomically replaces the served session — the replica
// re-bootstrap path: a follower that hit a WAL epoch gap builds a fresh
// session from a new snapshot and swaps it in while reads keep flowing.
// In-flight requests finish on the session they resolved; the old
// session is NOT closed here (its pinned snapshots may still be
// serving) — a non-durable replica session holds no resources beyond
// memory, which the GC reclaims once the last pin drops.
func (s *Server) SwapDB(db *dualsim.DB) {
	if db != nil {
		s.be.db.Store(db)
	}
}

// New builds a server over an open session. The session stays owned by
// the caller (Close it after the HTTP server is down).
func New(db *dualsim.DB, opts ...Option) (*Server, error) {
	if db == nil {
		return nil, fmt.Errorf("server: nil session")
	}
	cfg, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	be := &local{stmts: newStatementStore(cfg)}
	be.db.Store(db)
	core := newCore(be, "dualsimd", "query", cfg, be.stmts)
	reg := core.reg
	s := &Server{
		Core: core,
		be:   be,

		checkpoints: reg.Counter("dualsimd_checkpoint_requests_total", "checkpoints completed via /v1/checkpoint"),
		walStreams:  reg.Counter("dualsimd_wal_streams_total", "WAL tail requests served to replicas"),
		exports:     reg.Counter("dualsimd_exports_total", "predicate-slice exports served to routers"),
	}
	be.solverRounds = reg.Counter("dualsimd_solver_rounds_total", "dual-simulation solver rounds executed")
	be.stageSeconds = map[string]*metrics.Histogram{
		"fingerprint": reg.Histogram("dualsimd_stage_fingerprint_seconds", "fingerprint pre-filter stage latency", metrics.DefLatencyBuckets),
		"prune":       reg.Histogram("dualsimd_stage_prune_seconds", "dual-simulation pruning stage latency", metrics.DefLatencyBuckets),
		"evaluate":    reg.Histogram("dualsimd_stage_evaluate_seconds", "engine evaluation stage latency", metrics.DefLatencyBuckets),
	}
	s.registerStatementMetrics(reg)
	reg.GaugeFunc("dualsimd_epoch", "current store epoch", func() float64 {
		return float64(be.session().Epoch())
	})
	// Computed from CacheStats at scrape time; named without the _total
	// suffix OpenMetrics reserves for counters, since GaugeFunc is the
	// registry's only computed hook.
	reg.GaugeFunc("dualsimd_plan_cache_hits", "plan cache hits", func() float64 {
		return float64(be.session().CacheStats().Hits)
	})
	reg.GaugeFunc("dualsimd_plan_cache_misses", "plan cache misses", func() float64 {
		return float64(be.session().CacheStats().Misses)
	})
	reg.GaugeFunc("dualsimd_plan_cache_hit_rate", "plan cache hit rate in [0,1]", func() float64 {
		return be.session().CacheStats().HitRate()
	})
	reg.GaugeFunc("dualsimd_overlay_size", "live-update overlay ledger size", func() float64 {
		return float64(be.session().OverlaySize())
	})
	reg.GaugeFunc("dualsimd_triples", "triples in the current snapshot", func() float64 {
		return float64(be.session().Store().NumTriples())
	})
	// Durability series: all read from PersistStats, all zero on a
	// session without a data dir (dualsimd_durable tells the two apart).
	reg.GaugeFunc("dualsimd_durable", "1 when the session persists to a data dir", func() float64 {
		if be.session().Durable() {
			return 1
		}
		return 0
	})
	reg.GaugeFunc("dualsimd_wal_bytes", "write-ahead log size in bytes (since the last checkpoint)", func() float64 {
		return float64(be.session().PersistStats().WALBytes)
	})
	reg.GaugeFunc("dualsimd_wal_records", "write-ahead log records since the last checkpoint", func() float64 {
		return float64(be.session().PersistStats().WALRecords)
	})
	reg.GaugeFunc("dualsimd_checkpoints", "completed checkpoints (including the initial one)", func() float64 {
		return float64(be.session().PersistStats().Checkpoints)
	})
	reg.GaugeFunc("dualsimd_last_checkpoint_epoch", "epoch of the newest on-disk snapshot", func() float64 {
		return float64(be.session().PersistStats().LastCheckpointEpoch)
	})
	reg.GaugeFunc("dualsimd_snapshot_bytes", "size of the newest on-disk snapshot", func() float64 {
		return float64(be.session().PersistStats().SnapshotBytes)
	})
	reg.GaugeFunc("dualsimd_checkpoint_failures", "automatic checkpoints that failed (WAL keeps growing)", func() float64 {
		return float64(be.session().PersistStats().CheckpointFailures)
	})
	// Registered here, not in the core: a scrape must not evaluate the
	// router's Ready, which consumes a round-robin turn per shard.
	reg.GaugeFunc("dualsimd_ready", "1 when /readyz answers 200", func() float64 {
		if s.readyErr() == nil {
			return 1
		}
		return 0
	})

	s.Handle("POST /v1/compact", s.handleCompact)
	s.Handle("POST /v1/checkpoint", s.handleCheckpoint)
	s.Handle("GET /v1/export", s.handleExport)
	s.Handle("GET /v1/wal", s.handleWAL)
	s.Handle("GET /v1/wal/snapshot", s.handleWALSnapshot)
	return s, nil
}

// ---------------------------------------------------------------------------
// Backend

// Query pins the epoch for the whole request: execution answers from
// the pinned snapshot and the rows are decoded against the same
// dictionary, so a concurrent Apply (or even a compaction, which
// renumbers every node) cannot tear the response.
func (b *local) Query(ctx context.Context, src string) (Cursor, error) {
	snap := b.session().Snapshot()
	rows, err := snap.QueryStream(ctx, src)
	if err != nil {
		return nil, err
	}
	return &sessionCursor{Rows: rows, st: snap.Store(), epoch: snap.Epoch(), b: b}, nil
}

// sessionCursor renders a session's row cursor in wire form, straight
// off the pinned snapshot's dictionary.
type sessionCursor struct {
	*dualsim.Rows
	st     *dualsim.Store
	epoch  uint64
	b      *local
	closed bool
}

func (c *sessionCursor) Epoch() uint64 { return c.epoch }

//dualsim:hotpath
func (c *sessionCursor) AppendRow(dst []byte) []byte { return appendRow(dst, c.st, c.Rows.Row()) }

func (c *sessionCursor) Close() {
	if c.closed {
		return
	}
	c.closed = true
	_ = c.Rows.Close() // a close failure also lands in Err
	if c.Err() == nil {
		c.b.observe(c.Stats())
	}
}

// observe feeds the pipeline series — per-stage latency histograms and
// the solver round counter — from one completed execution.
func (b *local) observe(stats *dualsim.ExecStats) {
	for i := range stats.Stages {
		if h := b.stageSeconds[stats.Stages[i].Name]; h != nil {
			h.Observe(stats.Stages[i].Duration.Seconds())
		}
	}
	b.solverRounds.Add(int64(stats.Solver.Rounds))
}

func (b *local) Explain(ctx context.Context, src string, analyze bool) (*dualsim.Explain, error) {
	if analyze {
		return b.session().ExplainAnalyze(ctx, src)
	}
	return b.session().Explain(ctx, src)
}

func (b *local) Batch(ctx context.Context, srcs []string, failFast bool) ([]BatchResult, error) {
	reqs := make([]dualsim.BatchRequest, len(srcs))
	for i, src := range srcs {
		reqs[i] = dualsim.BatchRequest{Src: src}
	}
	var opts []dualsim.BatchOption
	if failFast {
		opts = append(opts, dualsim.BatchFailFast())
	}
	out, err := b.session().ExecBatch(ctx, reqs, opts...)
	// A context failure (deadline, client gone, closed session) fails
	// the call; a fail-fast first error is still reported per item, with
	// the per-request outcomes that did complete.
	if err != nil && (errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) || errors.Is(err, dualsim.ErrClosed)) {
		return nil, err
	}
	res := make([]BatchResult, len(out))
	for i := range out {
		if out[i].Err != nil {
			res[i].Err = out[i].Err
			continue
		}
		b.observe(out[i].Stats)
		// Decode against the store the member answered from, not the
		// session's current one: an Apply may land mid-batch.
		st, rows := out[i].Store, out[i].Result.Rows
		res[i].Rows = Materialized(out[i].Result.Vars, len(rows),
			func(dst []byte, j int) []byte { return appendRow(dst, st, rows[j]) }, out[i].Stats)
	}
	return res, nil
}

func (b *local) Apply(ctx context.Context, d dualsim.Delta) (any, uint64, error) {
	stats, err := b.session().Apply(ctx, d)
	if err != nil {
		return nil, 0, err
	}
	stats.Trace = trace.SpanFromContext(ctx)
	return &wire.ApplyResponse{Stats: stats}, stats.Epoch, nil
}

func (b *local) Snapshot(context.Context) (*wire.SnapshotResponse, error) {
	// The store shape comes from a pinned snapshot; the overlay counters
	// are live session reads. Re-read until the epoch is stable around
	// them so a concurrent Apply/Compact cannot tear the response into a
	// combination that never existed (e.g. the old epoch with the
	// post-compaction overlay size).
	var out wire.SnapshotResponse
	db := b.session()
	for i := 0; i < 4; i++ {
		snap := db.Snapshot()
		st := snap.Store()
		out = wire.SnapshotResponse{
			Epoch:       snap.Epoch(),
			Triples:     st.NumTriples(),
			Nodes:       st.NumNodes(),
			Predicates:  st.NumPreds(),
			OverlaySize: db.OverlaySize(),
			Compactions: db.Compactions(),
		}
		if db.Epoch() == snap.Epoch() {
			break
		}
	}
	return &out, nil
}

func (b *local) Epoch() uint64 { return b.session().Epoch() }

// Ready: a local session is routable as long as the core is (draining
// and the WithReadiness hook are resolved there).
func (b *local) Ready() error { return nil }

// appendRow renders one result row against the snapshot dictionary it
// was computed on, as Cursor.AppendRow specifies: each term in
// N-Triples rendering (<iri> / "literal") as a JSON string, null for
// unbound positions. Terms go from the dictionary into dst without an
// intermediate string; the result decodes to exactly Term.String().
//
//dualsim:hotpath
func appendRow(dst []byte, st *dualsim.Store, row []storage.NodeID) []byte {
	dst = append(dst, '[')
	for i, v := range row {
		if i > 0 {
			dst = append(dst, ',')
		}
		if v == dualsim.Unbound {
			dst = append(dst, "null"...)
			continue
		}
		if t := st.Term(v); t.IsLiteral() {
			dst = appendLiteral(dst, t.Value)
		} else {
			dst = append(dst, '"', '<')
			dst = wire.AppendEscaped(dst, t.Value)
			dst = append(dst, '>', '"')
		}
	}
	return append(dst, ']')
}

// appendLiteral appends the JSON string of a literal's N-Triples
// rendering. Two escapings compose: N-Triples turns the quote, the
// backslash, \n, \t and \r into backslash pairs, JSON then escapes
// those backslashes (and the quote) again; everything between such
// bytes is only JSON-escaped.
//
//dualsim:hotpath
func appendLiteral(dst []byte, v string) []byte {
	dst = append(dst, `"\"`...)
	from := 0
	for i := 0; i < len(v); i++ {
		var esc string
		switch v[i] {
		case '"':
			esc = `\\\"`
		case '\\':
			esc = `\\\\`
		case '\n':
			esc = `\\n`
		case '\t':
			esc = `\\t`
		case '\r':
			esc = `\\r`
		default:
			continue
		}
		dst = wire.AppendEscaped(dst, v[from:i])
		dst = append(dst, esc...)
		from = i + 1
	}
	dst = wire.AppendEscaped(dst, v[from:])
	return append(dst, `\""`...)
}

// ---------------------------------------------------------------------------
// Session-only routes

func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	s.Mutate(w, r, func(ctx context.Context) (any, uint64, error) {
		s.applies.Inc()
		stats, err := s.be.session().Compact(ctx)
		return &wire.ApplyResponse{Stats: stats}, stats.Epoch, err
	})
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	s.Mutate(w, r, func(ctx context.Context) (any, uint64, error) {
		stats, err := s.be.session().Checkpoint(ctx)
		if errors.Is(err, dualsim.ErrNotDurable) {
			// Not a transient failure: the daemon was started without -data.
			return nil, 0, Errorf(http.StatusConflict, "%v", err)
		}
		if err != nil {
			return nil, 0, err
		}
		s.checkpoints.Inc()
		return &wire.CheckpointResponse{Stats: stats}, stats.Epoch, nil
	})
}

// handleWALSnapshot streams the live pinned snapshot in the on-disk
// DSIMSNP1 container — the bootstrap half of replication. A replica
// decodes it with persist.DecodeSnapshot and starts tailing from the
// epoch in the X-Dualsim-Epoch header (repeated inside the container).
// No admission slot: replication must not be shed behind query load, or
// an overloaded primary could starve its own replicas into staleness.
func (s *Server) handleWALSnapshot(w http.ResponseWriter, r *http.Request) {
	snap := s.be.session().Snapshot()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Dualsim-Epoch", strconv.FormatUint(snap.Epoch(), 10))
	w.WriteHeader(http.StatusOK)
	// A write failure mid-stream means the replica went away; the torn
	// container fails its CRC on the other side, so nothing to clean up.
	_ = persist.EncodeSnapshotTo(w, snap.Store(), snap.Epoch())
}

// walPollInterval paces the long-poll loop of GET /v1/wal?waitMs=…: how
// often a parked tail request re-checks the log for fresh records.
const walPollInterval = 25 * time.Millisecond

// handleWAL serves the replication tail: every WAL record with epoch >
// fromEpoch, as NDJSON WALEvents (header, apply/compact records in
// replay order, end). waitMs long-polls an empty tail so an idle
// primary does not force replicas into tight polling. 409 on a
// non-durable session; 410 (with X-Dualsim-Checkpoint-Epoch) when a
// checkpoint truncated the requested range — the replica must
// re-bootstrap from /v1/wal/snapshot.
func (s *Server) handleWAL(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var from uint64
	if v := q.Get("fromEpoch"); v != "" {
		p, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			s.Fail(w, http.StatusBadRequest, "malformed fromEpoch: "+err.Error())
			return
		}
		from = p
	}
	var wait time.Duration
	if v := q.Get("waitMs"); v != "" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil || ms < 0 {
			s.Fail(w, http.StatusBadRequest, "malformed waitMs")
			return
		}
		wait = time.Duration(ms) * time.Millisecond
	}

	db := s.be.session()
	deadline := time.Now().Add(wait)
	recs, ckpt, err := db.WALTail(from)
	for err == nil && len(recs) == 0 && time.Now().Before(deadline) {
		select {
		case <-r.Context().Done():
			return // replica gone; nothing useful to write
		case <-time.After(walPollInterval):
		}
		// Re-resolve the session each round: a SwapDB mid-poll (this
		// server is itself a re-bootstrapping replica) must not leave the
		// poll parked on the abandoned session's log.
		db = s.be.session()
		recs, ckpt, err = db.WALTail(from)
	}
	switch {
	case err == nil:
	case errors.Is(err, dualsim.ErrNotDurable):
		// Permanent for this process: no WAL exists without -data.
		s.Fail(w, http.StatusConflict, err.Error())
		return
	case errors.Is(err, persist.ErrEpochGap):
		// Tell the replica where bootstrapping can restart from.
		w.Header().Set("X-Dualsim-Checkpoint-Epoch", strconv.FormatUint(ckpt, 10))
		s.Fail(w, http.StatusGone, err.Error())
		return
	default:
		s.FailExec(w, err)
		return
	}
	s.walStreams.Inc()

	cur := db.Epoch()
	w.Header().Set("Content-Type", wire.ContentTypeNDJSON)
	w.Header().Set("X-Dualsim-Epoch", strconv.FormatUint(cur, 10))
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	if err := enc.Encode(wire.WALEvent{Kind: wire.WALHeader, Epoch: cur, CheckpointEpoch: ckpt}); err != nil {
		return
	}
	for _, rec := range recs {
		ev := wire.WALEvent{Epoch: rec.Epoch}
		switch rec.Kind {
		case persist.RecordApply:
			ev.Kind = wire.WALApply
			ev.Adds = toWireTriples(rec.Adds)
			ev.Dels = toWireTriples(rec.Dels)
		case persist.RecordCompact:
			ev.Kind = wire.WALCompact
		default:
			// Unknown kinds cannot be skipped: the replica's contiguity
			// check would (correctly) flag the hole. Fail the stream.
			_ = enc.Encode(wire.WALEvent{Kind: wire.WALEnd, Epoch: rec.Epoch - 1})
			return
		}
		if err := enc.Encode(ev); err != nil {
			return
		}
	}
	_ = enc.Encode(wire.WALEvent{Kind: wire.WALEnd, Epoch: cur})
}

func toWireTriples(ts []dualsim.Triple) []wire.Triple {
	if len(ts) == 0 {
		return nil
	}
	out := make([]wire.Triple, len(ts))
	for i, t := range ts {
		out[i] = wire.FromTriple(t)
	}
	return out
}

// handleExport serves every triple of the requested predicates
// (?pred=…, repeatable) at one pinned epoch — the router's cross-shard
// gather path. Predicates this shard does not hold export as nothing,
// which is exactly right: the router unions slices across shards. Like
// the WAL endpoints it skips admission: a gather is part of an
// already-admitted query on the router, and shedding it would deadlock
// the fan-out under load.
func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	preds := r.URL.Query()["pred"]
	if len(preds) == 0 {
		s.Fail(w, http.StatusBadRequest, "export needs at least one pred parameter")
		return
	}
	s.exports.Inc()
	snap := s.be.session().Snapshot()
	st := snap.Store()
	out := wire.ExportResponse{Epoch: snap.Epoch()}
	for _, p := range preds {
		pid, ok := st.PredIDOf(p)
		if !ok {
			continue // not on this shard (or not in the data): empty slice
		}
		st.ForEachPair(pid, func(sub, obj storage.NodeID) bool {
			out.Triples = append(out.Triples, wire.FromTriple(dualsim.Triple{
				S: st.Term(sub), P: p, O: st.Term(obj),
			}))
			return true
		})
	}
	w.Header().Set("X-Dualsim-Epoch", strconv.FormatUint(out.Epoch, 10))
	s.WriteJSON(w, http.StatusOK, &out)
}
