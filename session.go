package dualsim

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dualsim/internal/core"
	"dualsim/internal/persist"
	"dualsim/internal/prune"
	"dualsim/internal/stats"
	"dualsim/internal/trace"
)

// ErrClosed is returned by session operations after Close.
var ErrClosed = errors.New("dualsim: session is closed")

// errNilStore is returned by Open and OpenAt for a nil store.
var errNilStore = errors.New("dualsim: nil store")

// dbSnapshot is one epoch of the session's graph database and the whole
// record of its lineage: an immutable store, its epoch number, the
// effective triple changes since the last compaction (the count
// WithCompactionThreshold tests) and the compactions since the session
// opened. Snapshots are fully constructed before publication and never
// mutated after, so readers need no locking.
type dbSnapshot struct {
	st          *Store
	epoch       uint64
	pending     int
	compactions int
}

// DB is a session over one graph database: a store plus a fixed
// configuration (solver parallelism, pruning, plan cache, durability)
// under which queries are prepared and executed, in the database/sql
// mould. A DB is safe for concurrent use by multiple goroutines.
//
// Prepare cost is paid once per query. The first Exec of a prepared
// query solves, prunes and plans, and keeps that view; every later Exec
// only re-opens a compiled tree of the kept plan and evaluates it,
// honouring its context. Neither takes a session lock: what planning
// and execution read of the store — its index, which is also the
// solver's adjacency — is built with the store and never changes.
//
// The database is live: Apply mutates it by publishing a new
// epoch-numbered snapshot, with MVCC-lite read semantics — in-flight
// executions (and Snapshot handles) finish against the epoch they
// started on, new calls see the new epoch, and the plan cache keys on
// the epoch so a stale plan can never serve a post-update query.
// See Apply, Snapshot and WithCompactionThreshold.
type DB struct {
	set   settings
	cache *planCache                 // LRU of prepared plans (WithPlanCache)
	pers  *persist.Log               // non-nil iff the session is durable (WithDataDir/OpenDir)
	snap  atomic.Pointer[dbSnapshot] // current epoch; swapped by Apply/Compact

	applyMu   sync.Mutex   // serializes Apply/Compact (single writer)
	ckptFails atomic.Int64 // automatic checkpoints that failed (see PersistStats)

	planBuilds atomic.Int64 // number of query plans built on this session
	closed     atomic.Bool
}

// Open starts a session over the store. The store must be built (Add +
// Build, or any of the constructors); it is shared, not copied, and must
// not be mutated directly while the session is live — use Apply, which
// publishes immutable snapshots instead of touching the store.
//
// With WithDataDir the session is durable from epoch 0: Open writes an
// initial checkpoint into the (empty) data dir and every later Apply is
// WAL-logged before it is acknowledged. A dir that already holds a
// durable store is refused — restart from it with OpenDir instead.
func Open(st *Store, opts ...Option) (*DB, error) {
	if st == nil {
		return nil, errNilStore
	}
	set, err := resolveSettings(opts)
	if err != nil {
		return nil, err
	}
	var lg *persist.Log
	if set.dataDir != "" {
		if persist.HasState(set.dataDir) {
			return nil, fmt.Errorf("dualsim: data dir %s already holds a durable store; warm-start from it with OpenDir", set.dataDir)
		}
		if lg, err = persist.Init(set.dataDir, st, 0); err != nil {
			return nil, fmt.Errorf("dualsim: initializing data dir: %w", err)
		}
	}
	return openAt(st, 0, lg, set), nil
}

// OpenDir starts a session from a durable data directory written by a
// previous WithDataDir session: boot = load the latest snapshot +
// replay the WAL tail, preserving epoch continuity — no re-ingestion of
// the original RDF input. The recovered session keeps appending to the
// same directory.
func OpenDir(dir string, opts ...Option) (*DB, error) {
	if dir == "" {
		return nil, fmt.Errorf("dualsim: empty data dir")
	}
	set, err := resolveSettings(opts)
	if err != nil {
		return nil, err
	}
	if set.dataDir != "" && set.dataDir != dir {
		return nil, fmt.Errorf("dualsim: OpenDir(%s) conflicts with WithDataDir(%s)", dir, set.dataDir)
	}
	set.dataDir = dir
	lg, rec, err := persist.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("dualsim: opening data dir: %w", err)
	}
	// The tail is replayed before the log is attached, so recovery
	// appends nothing to the WAL it reads.
	db := openAt(rec.Store, rec.SnapshotEpoch, nil, set)
	if err := db.Replay(context.Background(), rec.Tail); err != nil {
		lg.Close()
		return nil, err
	}
	db.pers = lg
	return db, nil
}

// OpenAt starts a session over the store at a given epoch — the
// replication bootstrap entry point. A replica that decoded a primary
// snapshot stamped with epoch E opens its session here and then applies
// the primary's WAL records E+1, E+2, … through Replay.
//
// Durability options are refused: a replica's store of record is its
// primary — on divergence or a WAL gap it re-bootstraps from a fresh
// snapshot instead of recovering local state.
func OpenAt(st *Store, epoch uint64, opts ...Option) (*DB, error) {
	if st == nil {
		return nil, errNilStore
	}
	set, err := resolveSettings(opts)
	if err != nil {
		return nil, err
	}
	if set.dataDir != "" {
		return nil, fmt.Errorf("dualsim: OpenAt is for replicas, which re-bootstrap rather than recover; WithDataDir is not supported")
	}
	return openAt(st, epoch, nil, set), nil
}

func resolveSettings(opts []Option) (settings, error) {
	set := defaultSettings()
	for _, opt := range opts {
		if err := opt(&set); err != nil {
			return set, err
		}
	}
	return set, nil
}

// openAt wires a session over the store at the given epoch, appending
// to lg when it is non-nil.
func openAt(st *Store, epoch uint64, lg *persist.Log, set settings) *DB {
	db := &DB{set: set, pers: lg, cache: newPlanCache(set.planCache)}
	db.snap.Store(&dbSnapshot{st: st, epoch: epoch})
	return db
}

// Close releases the session. Prepared queries of a closed session fail
// with ErrClosed; the underlying store is untouched. On a durable
// session Close releases the WAL file handle — every acknowledged Apply
// was already fsync'd, so nothing is lost (checkpoint first via
// Checkpoint if you want the next boot to skip the replay).
func (db *DB) Close() error {
	if db.closed.Swap(true) {
		return nil
	}
	if db.pers != nil {
		return db.pers.Close()
	}
	return nil
}

// Store returns the session's current store snapshot. After an Apply it
// returns the new epoch's store; handles obtained earlier keep reading
// their own (immutable) snapshot.
func (db *DB) Store() *Store { return db.snap.Load().st }

// Epoch returns the current store epoch: 0 at Open, +1 per Apply or
// Compact.
func (db *DB) Epoch() uint64 { return db.snap.Load().epoch }

// PlanBuilds returns how many query plans this session has built — one
// per Prepare call, never per Exec. Exposed so services (and tests) can
// assert that prepared queries reuse their plan.
func (db *DB) PlanBuilds() int64 { return db.planBuilds.Load() }

// PrepareStats reports the one-time planning work of a Prepare call.
// JSON tags are part of the serving wire format (see ExecStats).
//
//dualsim:wire
type PrepareStats struct {
	// PlanTime is the total planning duration: parsing (when Prepare was
	// given source text), pattern extraction and SOI lowering with the
	// inequality-ordering keys.
	PlanTime time.Duration `json:"planTime"`
	// ParseTime is the slice of PlanTime spent parsing the source text
	// (0 when the query arrived pre-parsed). Split out so the tracer's
	// parse/plan spans report honest per-phase costs.
	ParseTime time.Duration `json:"parseTime,omitempty"`
	// Branches is the number of union-free branches of the plan.
	Branches int `json:"branches"`
	// Variables and Inequalities size the systems of inequalities,
	// summed over branches.
	Variables    int `json:"variables"`
	Inequalities int `json:"inequalities"`
}

// PreparedQuery is a query planned once against a session: parsed,
// translated to per-branch systems of inequalities (with the
// empty-column counts that break ties in the solver's cheapest-first
// worklist) and finalized for concurrent solving. Its first execution
// that finishes its solve also keeps what depends only on the query and the
// snapshot — the largest dual simulation, the kept-triple filter and the
// physical plan costed through it — so later executions neither solve
// nor plan (see Stream; ExecStats.Reused). The kept χ rows live as long
// as the prepared query: one universe-wide vector per query variable and
// branch, dropped with the query (or its plan-cache entry). It is safe
// for concurrent use; every execution evaluates on private state.
//
// A PreparedQuery is pinned to the store epoch it was planned on: its
// executions keep answering from that (immutable) snapshot even after a
// later Apply. Callers serving live traffic should route text through
// Query (or a Snapshot's QueryStream), whose epoch-keyed plan cache
// re-plans on the first request after an update.
type PreparedQuery struct {
	db       *DB
	snap     *dbSnapshot // pinned store + epoch
	q        *Query
	plan     *core.QueryPlan
	fprint   stats.Fingerprint // normalized statement identity, computed once at Prepare
	prep     PrepareStats
	lastRows atomic.Int64 // rows of the last drained Exec: the next one's capacity
	// view is the pruned view and physical plan of the first execution
	// that finished its solve; nil until then. Stored once, never replaced.
	view atomic.Pointer[preparedView]
}

// Fingerprint returns the query's normalized statement fingerprint: the
// stable identity under which the serving layer aggregates workload
// statistics. Cosmetic variants of one statement — whitespace, literal
// values, variable names — share it; structural changes never do.
func (pq *PreparedQuery) Fingerprint() string { return pq.fprint.ID }

// Prepare parses the query source and plans it against the session's
// current snapshot. The returned PreparedQuery may be executed any
// number of times, concurrently; all parse and planning work happens
// here, exactly once.
func (db *DB) Prepare(src string) (*PreparedQuery, error) {
	return db.Snapshot().Prepare(src)
}

// PrepareQuery plans an already-parsed query against the session's
// current snapshot.
func (db *DB) PrepareQuery(q *Query) (*PreparedQuery, error) {
	return db.prepareParsed(db.snap.Load(), q, time.Now(), 0)
}

// prepareSrc parses and plans query text against one snapshot.
func (db *DB) prepareSrc(snap *dbSnapshot, src string) (*PreparedQuery, error) {
	start := time.Now()
	q, err := ParseQuery(src)
	if err != nil {
		return nil, err
	}
	return db.prepareParsed(snap, q, start, time.Since(start))
}

// prepareParsed plans a parsed query against one snapshot. parse is the
// slice of the planning time already spent parsing (0 for a pre-parsed
// query), so PrepareStats (and trace spans) can report parse and plan
// separately.
func (db *DB) prepareParsed(snap *dbSnapshot, q *Query, start time.Time, parse time.Duration) (*PreparedQuery, error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	plan, err := core.BuildQueryPlan(snap.st, q, core.Config{})
	if err != nil {
		return nil, err
	}
	plan.Finalize()

	pq := &PreparedQuery{db: db, snap: snap, q: q, plan: plan, fprint: stats.Of(q)}
	pq.prep.Branches = len(plan.Branches)
	for _, br := range plan.Branches {
		pq.prep.Variables += br.Sys.NumVars()
		pq.prep.Inequalities += br.Sys.NumIneqs()
	}

	pq.prep.PlanTime = time.Since(start)
	pq.prep.ParseTime = parse
	db.planBuilds.Add(1)
	return pq, nil
}

// Query returns the parsed query.
func (pq *PreparedQuery) Query() *Query { return pq.q }

// PrepareStats returns the one-time planning statistics.
func (pq *PreparedQuery) PrepareStats() PrepareStats { return pq.prep }

// recordPrepareSpans grafts parse/plan spans for this request's
// planning work under the context's trace span. A cache hit records a
// zero-length plan span tagged cached, so the trace still shows where
// the plan came from without inflating the request's apparent time.
func recordPrepareSpans(ctx context.Context, pq *PreparedQuery, cached bool) {
	if ctx == nil {
		return
	}
	sp := trace.SpanFromContext(ctx)
	if sp == nil {
		return
	}
	if cached {
		pl := sp.Record("plan", 0)
		pl.SetAttr("cached", "true")
		return
	}
	if pq.prep.ParseTime > 0 {
		sp.Record("parse", pq.prep.ParseTime)
	}
	pl := sp.Record("plan", pq.prep.PlanTime-pq.prep.ParseTime)
	pl.Add("branches", int64(pq.prep.Branches))
	pl.Add("variables", int64(pq.prep.Variables))
	pl.Add("inequalities", int64(pq.prep.Inequalities))
}

// Exec is the one-shot convenience: Prepare + Exec. Prefer Prepare for
// repeated queries — it performs the planning work exactly once — or
// Query, which reuses plans through the session's cache.
func (db *DB) Exec(ctx context.Context, src string) (*Result, *ExecStats, error) {
	return db.Snapshot().Exec(ctx, src)
}

// Query is the one-shot serving entry point: it resolves src through the
// session's plan cache (WithPlanCache) and executes the pipeline. A
// cache hit skips parse and SOI lowering entirely and is reported in
// ExecStats.CacheHit; a miss plans once and caches the prepared query
// for subsequent calls with the same text, byte for byte (a reformatted
// text plans once more; its statement fingerprint is the same).
// Safe for concurrent use; concurrent misses of one text build its plan
// once.
//
// Cache keys carry the store epoch: the first Query after an Apply
// misses and re-plans on the new snapshot, so a cached plan can never
// answer from pre-update state.
func (db *DB) Query(ctx context.Context, src string) (*Result, *ExecStats, error) {
	return db.Snapshot().Query(ctx, src)
}

// prepareCached resolves query text to a prepared query for the
// snapshot through the plan cache, reporting whether it was a hit. Keys
// are the snapshot epoch plus the text exactly as sent, so plans of
// superseded epochs structurally miss; a hit hashes and compares the
// text in place and allocates nothing. Cache misses for the same key
// are single-flighted: the plan is built once, concurrent callers block
// on buildMu and pick up the freshly inserted entry. A plan of a
// superseded epoch still executes but is not cached (see
// planCache.insert).
func (s *Snapshot) prepareCached(src string) (*PreparedQuery, bool, error) {
	db := s.db
	key := planKey{epoch: s.snap.epoch, text: src}
	if pq := db.cache.lookup(key, true); pq != nil {
		return pq, true, nil
	}
	db.cache.buildMu.Lock()
	defer db.cache.buildMu.Unlock()
	if pq := db.cache.lookup(key, false); pq != nil {
		// A concurrent caller built the plan while we waited: the recorded
		// miss was in fact served from the cache.
		db.cache.promoteMiss()
		return pq, true, nil
	}
	pq, err := db.prepareSrc(s.snap, src)
	if err != nil {
		return nil, false, err
	}
	db.cache.insert(key, pq)
	return pq, false, nil
}

// CacheStats reports the plan cache's size and hit/miss/eviction
// counters.
func (db *DB) CacheStats() PlanCacheStats {
	return db.cache.stats()
}

// DualSimulate computes the largest dual simulation of q over the
// session's current snapshot, honouring ctx.
func (db *DB) DualSimulate(ctx context.Context, q *Query) (*Relation, error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	if ctx == nil {
		ctx = context.Background()
	}
	st := db.snap.Load().st
	rel, err := core.QueryDualSimulationCtx(ctx, st, q, core.Config{})
	if err != nil {
		return nil, err
	}
	return &Relation{rel: rel, st: st}, nil
}

// Prune computes the pruned database for q over the session's current
// snapshot, honouring ctx.
func (db *DB) Prune(ctx context.Context, q *Query) (*Pruning, error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	if ctx == nil {
		ctx = context.Background()
	}
	st := db.snap.Load().st
	p, _, err := prune.PruneQueryCtx(ctx, st, q, core.Config{})
	if err != nil {
		return nil, err
	}
	return &Pruning{p: p, st: st}, nil
}
