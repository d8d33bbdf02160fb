package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
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
// use; construct with New (a primary) or NewReplica (a read replica) and
// mount Handler (or the Server itself, it implements http.Handler).
type Server struct {
	*Core
	be *local

	checkpoints        *metrics.Counter
	walStreams         *metrics.Counter
	exports            *metrics.Counter
	exportsNotModified *metrics.Counter
}

// local is the Backend over a *dualsim.DB.
type local struct {
	cur atomic.Pointer[served]
	src Replica // nil on a primary, whose session never changes
	// stmts aggregates executions per normalized statement fingerprint
	// for GET /v1/debug/statements: up to qstats.DefaultCapacity
	// statements, the least recently executed evicted beyond that.
	stmts *qstats.Store

	// stageSeconds are the per-pipeline-stage latency histograms, keyed
	// by stage name; fixed at construction so Observe stays lock-free.
	stageSeconds map[string]*metrics.Histogram
	solverRounds *metrics.Counter
}

// served is one served session and the nonce drawn when it began to be
// served. The export validator is "<nonce>-<epoch>": an epoch names one
// store state only within one session, so another process, replica or
// re-bootstrapped session never matches a validator it did not hand out.
type served struct {
	db    *dualsim.DB
	nonce string
}

func newServed(db *dualsim.DB) *served {
	return &served{db: db, nonce: strconv.FormatUint(rand.Uint64(), 16)}
}

// current returns the served session and its nonce, resolved once per
// request. A replica serves whatever session its source holds now; when
// that moved since the last request, the new session is served under a
// fresh nonce. A lost swap re-reads the source: the winner may have
// installed a newer session than the one read before it.
func (b *local) current() *served {
	cur := b.cur.Load()
	if b.src == nil {
		return cur
	}
	for {
		db := b.src.DB()
		if db == cur.db {
			return cur
		}
		if next := newServed(db); b.cur.CompareAndSwap(cur, next) {
			return next
		}
		cur = b.cur.Load()
	}
}

// session returns the current session.
func (b *local) session() *dualsim.DB { return b.current().db }

// Replica is the source a read replica serves: *cluster.Follower, which
// replays its primary's WAL into a session and re-bootstraps into a
// fresh one when the tail breaks.
type Replica interface {
	// DB returns the session to serve now, never nil.
	DB() *dualsim.DB
	// Ready reports why the replica should not be routed to, or nil.
	Ready() error
}

// New builds a primary's server over an open session. The session stays
// owned by the caller (Close it after the HTTP server is down).
func New(db *dualsim.DB, opts ...Option) (*Server, error) {
	if db == nil {
		return nil, fmt.Errorf("server: nil session")
	}
	return newServer(&local{}, db, opts)
}

// NewReplica builds a read replica's server over r. Every request
// serves the session r.DB() returns when it arrives, /readyz answers
// r.Ready(), and the mutating endpoints answer 403: a replica's state
// changes only through its primary's records.
func NewReplica(r Replica, opts ...Option) (*Server, error) {
	if r == nil || r.DB() == nil {
		return nil, fmt.Errorf("server: replica without a session")
	}
	s, err := newServer(&local{src: r}, r.DB(), opts)
	if err != nil {
		return nil, err
	}
	s.readOnly = true
	return s, nil
}

func newServer(be *local, db *dualsim.DB, opts []Option) (*Server, error) {
	cfg, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	be.stmts = qstats.NewStore(qstats.DefaultCapacity)
	be.cur.Store(newServed(db))
	core := newCore(be, "dualsimd", "query", cfg, be.stmts)
	reg := core.reg
	s := &Server{
		Core: core,
		be:   be,

		checkpoints: reg.Counter("dualsimd_checkpoint_requests_total", "checkpoints completed via /v1/checkpoint"),
		walStreams:  reg.Counter("dualsimd_wal_streams_total", "WAL tail requests served to replicas"),
		exports:     reg.Counter("dualsimd_exports_total", "predicate-slice exports served to routers"),
		exportsNotModified: reg.Counter("dualsimd_exports_not_modified_total",
			"exports answered 304 because the router holds the current slice"),
	}
	be.solverRounds = reg.Counter("dualsimd_solver_rounds_total", "dual-simulation solver rounds executed")
	be.stageSeconds = map[string]*metrics.Histogram{
		"prune":    reg.Histogram("dualsimd_stage_prune_seconds", "dual-simulation pruning stage latency", metrics.DefLatencyBuckets),
		"evaluate": reg.Histogram("dualsimd_stage_evaluate_seconds", "engine evaluation stage latency", metrics.DefLatencyBuckets),
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
	reg.GaugeFunc("dualsimd_overlay_size", "effective triple changes since the last compaction", func() float64 {
		return float64(be.session().Snapshot().OverlaySize())
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
// dictionary, so a concurrent Apply (or even a compaction, which may
// renumber every node) cannot tear the response.
func (b *local) Query(ctx context.Context, src string) (Cursor, error) {
	snap := b.session().Snapshot()
	rows, err := snap.QueryStream(ctx, src)
	if err != nil {
		return nil, err
	}
	return &sessionCursor{Rows: rows, st: snap.Store(), epoch: snap.Epoch(), b: b}, nil
}

// sessionCursor serves a session's row cursor: a value's key is its
// node id, rendered straight off the pinned snapshot's dictionary.
type sessionCursor struct {
	*dualsim.Rows
	st     *dualsim.Store
	epoch  uint64
	b      *local
	keys   []wire.Key
	closed bool
}

func (c *sessionCursor) Epoch() uint64 { return c.epoch }

//dualsim:hotpath
func (c *sessionCursor) NextLines(dst []byte, w *wire.TermWriter) ([]byte, bool) {
	if !c.Rows.Next() {
		return dst, false
	}
	c.keys = nodeKeys(c.keys[:0], c.Rows.Row())
	return w.AppendRow(dst, c.keys, c), true
}

//dualsim:hotpath
func (c *sessionCursor) AppendCell(dst []byte, k wire.Key) []byte { return appendNode(dst, c.st, k) }

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

func (b *local) Apply(ctx context.Context, d dualsim.Delta) (any, uint64, error) {
	stats, err := b.session().Apply(ctx, d)
	if err != nil {
		return nil, 0, err
	}
	stats.Trace = trace.SpanFromContext(ctx)
	return &wire.ApplyResponse{Stats: stats}, stats.Epoch, nil
}

func (b *local) Snapshot(context.Context) (*wire.SnapshotResponse, error) {
	// One pinned snapshot carries the store and its lineage counters, so
	// a concurrent Apply/Compact cannot tear the response.
	snap := b.session().Snapshot()
	st := snap.Store()
	return &wire.SnapshotResponse{
		Epoch:       snap.Epoch(),
		Triples:     st.NumTriples(),
		Nodes:       st.NumNodes(),
		Predicates:  st.NumPreds(),
		OverlaySize: snap.OverlaySize(),
		Compactions: snap.Compactions(),
	}, nil
}

func (b *local) Epoch() uint64 { return b.session().Epoch() }

// Ready: a primary is routable as long as the core is (draining is
// resolved there); a replica as long as its source is ready too.
func (b *local) Ready() error {
	if b.src == nil {
		return nil
	}
	return b.src.Ready()
}

// nodeKeys appends the keys of a result row: a node's id, wire.NoKey
// for unbound.
//
//dualsim:hotpath
func nodeKeys(dst []wire.Key, row []storage.NodeID) []wire.Key {
	for _, v := range row {
		k := wire.Key(v)
		if v == dualsim.Unbound {
			k = wire.NoKey
		}
		dst = append(dst, k)
	}
	return dst
}

// appendNode renders node k against the snapshot dictionary it was
// computed on, as wire.CellAppender specifies: the term in N-Triples
// rendering (<iri> / "literal") as a JSON string, from the dictionary's
// arena into dst without an intermediate string. The result decodes to
// exactly Term.String().
//
//dualsim:hotpath
func appendNode(dst []byte, st *dualsim.Store, k wire.Key) []byte {
	return wire.AppendTerm(dst, st.Term(storage.NodeID(k)))
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
// often a parked tail request re-checks the session's epoch.
const walPollInterval = 25 * time.Millisecond

// handleWAL serves the replication tail: a WAL file of the records
// after fromEpoch, CRC per record — the header and frames
// internal/persist writes to disk — with Content-Length, the primary's
// epoch in X-Dualsim-Epoch and its last checkpoint in
// X-Dualsim-Checkpoint-Epoch. The body is encoded whole before it is
// sent, so a long catch-up costs the encoded tail in memory on top of
// the records WALTail already holds. waitMs long-polls an empty tail
// so an idle primary does not force replicas into tight polling, until
// the core starts draining. 409 on a non-durable session; 410 (with
// X-Dualsim-Checkpoint-Epoch) when a checkpoint truncated the requested
// range — the replica must re-bootstrap from /v1/wal/snapshot.
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
	// A draining core ends the poll with the tail it has: Shutdown does
	// not cancel request contexts, and a parked poll would hold its
	// connection past the drain grace.
	for err == nil && len(recs) == 0 && time.Now().Before(deadline) && !s.isDraining() {
		select {
		case <-r.Context().Done():
			return // replica gone; nothing useful to write
		case <-time.After(walPollInterval):
		}
		// Re-resolve the session each round: a re-bootstrap mid-poll
		// (this server is itself a replica) must not leave the poll
		// parked on the abandoned session's log. Re-read the log
		// only once the epoch moved: reading it blocks appends.
		db = s.be.session()
		if db.Epoch() > from {
			recs, ckpt, err = db.WALTail(from)
		}
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
	body := persist.EncodeWAL(recs)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Header().Set("X-Dualsim-Epoch", strconv.FormatUint(db.Epoch(), 10))
	w.Header().Set("X-Dualsim-Checkpoint-Epoch", strconv.FormatUint(ckpt, 10))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body) // a torn write fails the replica's read; nothing to clean up
}

// handleExport serves every triple of the requested predicates
// (?pred=…, repeatable; a repeat exports once) at one pinned epoch —
// the router's cross-shard gather path — as the DSIMSNP1 container of
// that predicate slice, the format /v1/wal/snapshot streams, epoch in
// the X-Dualsim-Epoch header and inside the container. Predicates this
// shard does not hold export as nothing, which is exactly right: the
// router unions slices across shards. Like the WAL endpoints it skips
// admission: a gather is part of an already-admitted query on the
// router, and shedding it would deadlock the fan-out under load.
//
// The answer carries the validator ETag: "<session nonce>-<epoch>". A
// request whose If-None-Match lists the current validator gets 304 and
// no body: the slice it holds is the one this session serves at this
// epoch, so nothing is encoded.
func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	names := r.URL.Query()["pred"]
	if len(names) == 0 {
		s.Fail(w, http.StatusBadRequest, "export needs at least one pred parameter")
		return
	}
	s.exports.Inc()
	cur := s.be.current()
	snap := cur.db.Snapshot()
	epoch := strconv.FormatUint(snap.Epoch(), 10)
	etag := `"` + cur.nonce + "-" + epoch + `"`
	w.Header().Set("ETag", etag)
	w.Header().Set("X-Dualsim-Epoch", epoch)
	if holds(r.Header.Values("If-None-Match"), etag) {
		s.exportsNotModified.Inc()
		w.WriteHeader(http.StatusNotModified)
		return
	}
	st := snap.Store()
	var preds []storage.PredID
	for _, p := range names {
		if pid, ok := st.PredIDOf(p); ok { // not on this shard: empty slice
			preds = append(preds, pid)
		}
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	// As for the bootstrap snapshot: a torn container fails its CRC at
	// the router, so a write failure needs no handling here.
	_ = persist.EncodeSliceTo(w, st, preds, snap.Epoch())
}

// holds reports whether the If-None-Match lists name etag: comma-separated
// entity tags, weak ones compared by their opaque part. Anything else,
// "*" included, matches nothing, so a malformed list costs a full export.
func holds(lists []string, etag string) bool {
	for _, list := range lists {
		for _, tag := range strings.Split(list, ",") {
			if strings.TrimPrefix(strings.TrimSpace(tag), "W/") == etag {
				return true
			}
		}
	}
	return false
}
