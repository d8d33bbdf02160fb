package dualsim

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dualsim/internal/bitvec"
	"dualsim/internal/core"
	"dualsim/internal/delta"
	"dualsim/internal/engine"
	"dualsim/internal/partition"
	"dualsim/internal/persist"
	"dualsim/internal/prune"
	"dualsim/internal/stats"
	"dualsim/internal/trace"
)

// ErrClosed is returned by session operations after Close.
var ErrClosed = errors.New("dualsim: session is closed")

// dbSnapshot is one epoch of the session's graph database: an immutable
// store, its epoch number, and the fingerprint summary built for it (nil
// when the session has none). Snapshots are fully constructed before
// publication and never mutated after, so readers need no locking.
type dbSnapshot struct {
	st    *Store
	epoch uint64
	fp    *Fingerprint
}

// DB is a session over one graph database: a store plus a fixed
// configuration (solver switches, pruning, fingerprint) under which
// queries are prepared and executed, in the database/sql mould.
// A DB is safe for concurrent use by multiple goroutines.
//
// Open cost is paid once per session — notably the fingerprint summary
// when WithFingerprint is set — and Prepare cost once per query; Exec
// then runs only the per-execution pipeline (solve, prune, evaluate)
// and honours its context.
//
// The database is live: Apply mutates it by publishing a new
// epoch-numbered snapshot, with MVCC-lite read semantics — in-flight
// executions (and explicitly pinned Snapshot handles) finish against the
// epoch they started on, new calls see the new epoch, and the plan cache
// keys on the epoch so a stale plan can never serve a post-update query.
// See Apply, Snapshot and WithCompactionThreshold.
type DB struct {
	set     settings
	cache   *planCache   // non-nil iff WithPlanCache was given
	wantFP  bool         // the pipeline consumes a fingerprint (WithFingerprint and pruning on)
	pers    *persist.Log // non-nil iff the session is durable (WithDataDir/OpenDir)
	overlay *delta.Overlay
	snap    atomic.Pointer[dbSnapshot] // current epoch; swapped by Apply/Compact

	applyMu   sync.Mutex   // serializes Apply/Compact (single writer)
	ckptFails atomic.Int64 // automatic checkpoints that failed (see PersistStats)
	// fpPart is the partition behind the current snapshot's fingerprint,
	// kept for incremental advance across applies. Guarded by applyMu
	// (written once more in Open, before any concurrency).
	fpPart *partition.Partition

	prepMu     sync.Mutex   // serializes planning (lazy matrix builds)
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
	if err := requireStore(st); err != nil {
		return nil, err
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
	db, err := openAt(st, 0, nil, lg, set)
	if err != nil && lg != nil {
		lg.Close()
	}
	return db, err
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
	db, err := openAt(rec.Store, rec.SnapshotEpoch, rec.Tail, lg, set)
	if err != nil {
		lg.Close()
		return nil, err
	}
	return db, nil
}

// OpenAt starts a session over the store at a given epoch — the
// replication bootstrap entry point. A replica that decoded a primary
// snapshot stamped with epoch E opens its session here and then applies
// the primary's WAL records E+1, E+2, … through Apply, each landing on
// exactly its stamped epoch (Apply bumps by one, and the primary never
// logs empty deltas).
//
// Durability options are refused: a replica's store of record is its
// primary — on divergence or a WAL gap it re-bootstraps from a fresh
// snapshot instead of recovering local state.
func OpenAt(st *Store, epoch uint64, opts ...Option) (*DB, error) {
	if err := requireStore(st); err != nil {
		return nil, err
	}
	set, err := resolveSettings(opts)
	if err != nil {
		return nil, err
	}
	if set.dataDir != "" {
		return nil, fmt.Errorf("dualsim: OpenAt is for replicas, which re-bootstrap rather than recover; WithDataDir is not supported")
	}
	return openAt(st, epoch, nil, nil, set)
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

// openAt wires a session over the store at the given epoch, replaying a
// recovered WAL tail first (both zero for a plain Open). Each replayed
// record must land exactly on its stamped epoch — a divergence means
// the log is missing or reordering records and the boot is refused
// rather than silently serving a wrong epoch.
func openAt(st *Store, epoch uint64, tail []persist.Record, lg *persist.Log, set settings) (*DB, error) {
	db := &DB{set: set, pers: lg}
	if set.planCache > 0 {
		db.cache = newPlanCache(set.planCache)
	}
	overlay, err := delta.NewAt(st, set.compactThreshold, epoch)
	if err != nil {
		return nil, fmt.Errorf("dualsim: %w", err)
	}
	for _, r := range tail {
		var res delta.Result
		switch r.Kind {
		case persist.RecordApply:
			_, res, err = overlay.Apply(delta.Delta{Adds: r.Adds, Dels: r.Dels})
		case persist.RecordCompact:
			_, res, err = overlay.Compact()
		default:
			err = fmt.Errorf("unknown WAL record kind %d", r.Kind)
		}
		if err != nil {
			return nil, fmt.Errorf("dualsim: replaying WAL record for epoch %d: %w", r.Epoch, err)
		}
		if res.Epoch != r.Epoch {
			return nil, fmt.Errorf("dualsim: WAL replay diverged: record stamped epoch %d, replay reached epoch %d (missing or reordered records)", r.Epoch, res.Epoch)
		}
	}
	db.overlay = overlay
	cur, curEpoch := overlay.Current()
	// The summary refinement is expensive; build it only when the pipeline
	// can consume it — the fingerprint bounds feed the pruning solve.
	db.wantFP = set.fingerprint && set.pruning
	snap := &dbSnapshot{st: cur, epoch: curEpoch}
	if db.wantFP {
		fp, err := BuildFingerprint(cur, set.fingerprintK)
		if err != nil {
			return nil, fmt.Errorf("dualsim: building fingerprint: %w", err)
		}
		snap.fp = fp
		db.fpPart = fp.sum.Part
	}
	db.snap.Store(snap)
	return db, nil
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

// Fingerprint returns the current snapshot's fingerprint summary, or nil
// when the session was opened without WithFingerprint.
func (db *DB) Fingerprint() *Fingerprint { return db.snap.Load().fp }

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
	// given source text), pattern extraction, SOI lowering with the
	// inequality-ordering keys, and the fingerprint lookup.
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
	// RestrictedVars counts the solver variables the fingerprint lookup
	// tightened (0 without WithFingerprint).
	RestrictedVars int `json:"restrictedVars,omitempty"`
}

// PreparedQuery is a query planned once against a session: parsed,
// translated to per-branch systems of inequalities (with the
// empty-column counts that break ties in the solver's cheapest-first
// worklist), finalized for concurrent solving, and
// — when the session has a fingerprint — pre-filtered to summary-lifted
// candidate bounds. It is safe for concurrent use; every Exec runs the
// pipeline on private state.
//
// A PreparedQuery is pinned to the store epoch it was planned on: its
// executions keep answering from that (immutable) snapshot even after a
// later Apply. Callers serving live traffic should route text through
// Query/ExecBatch, whose epoch-keyed plan cache re-plans on the first
// request after an update.
type PreparedQuery struct {
	db         *DB
	snap       *dbSnapshot // pinned store + epoch + fingerprint
	q          *Query
	plan       *core.QueryPlan
	restrict   [][]*bitvec.Vector // per branch, indexed like Branch.Vars; nil when nothing restricted
	fpTightest int                // smallest lifted candidate-set size (fingerprint stage's Out)
	fprint     stats.Fingerprint  // normalized statement identity, computed once at Prepare
	prep       PrepareStats
	lastRows   atomic.Int64 // rows of the last drained Exec: the next one's capacity
}

// Fingerprint returns the query's normalized statement fingerprint: the
// stable identity under which the serving layer aggregates workload
// statistics. Cosmetic variants of one statement — whitespace, literal
// values, variable names — share it; structural changes never do.
func (pq *PreparedQuery) Fingerprint() string { return pq.fprint.ID }

// view is the session's current epoch as an unpinned read view: the live
// entry points below are the Snapshot ones on it.
func (db *DB) view() *Snapshot { return &Snapshot{db: db, snap: db.snap.Load()} }

// Prepare parses the query source and plans it against the session's
// current snapshot. The returned PreparedQuery may be executed any
// number of times, concurrently; all parse and planning work happens
// here, exactly once.
func (db *DB) Prepare(src string) (*PreparedQuery, error) {
	return db.view().Prepare(src)
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
	// Planning triggers the store's lazy per-predicate matrix builds and
	// (with a fingerprint) a solve on the summary store; serialize it so
	// concurrent Prepare calls stay race-free. Exec never takes this lock.
	db.prepMu.Lock()
	defer db.prepMu.Unlock()

	plan, err := core.BuildQueryPlan(snap.st, q, db.set.coreConfig())
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

	if snap.fp != nil { // only built when the pipeline consumes it (wantFP)
		restrict := make([][]*bitvec.Vector, len(plan.Branches))
		tightest := snap.st.NumNodes()
		restricted := 0
		for i, br := range plan.Branches {
			restrict[i] = snap.fp.sum.LiftedVectors(snap.st, br.PatternGraph())
			for _, vec := range restrict[i] {
				if vec == nil {
					continue
				}
				restricted++
				if c := vec.Count(); c < tightest {
					tightest = c
				}
			}
		}
		if restricted > 0 {
			pq.restrict = restrict
			pq.fpTightest = tightest
			pq.prep.RestrictedVars = restricted
		}
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
	return db.view().Exec(ctx, src)
}

// Query is the one-shot serving entry point: it resolves src through the
// session's plan cache (WithPlanCache) and executes the pipeline. A
// cache hit skips parse, SOI lowering and fingerprint lifting entirely
// and is reported in ExecStats.CacheHit; a miss plans once and caches the
// prepared query for subsequent calls with the same (whitespace-
// normalized) text. Without a configured cache, Query degrades to Exec.
// Safe for concurrent use; concurrent misses of one text build its plan
// once.
//
// Cache keys carry the store epoch: the first Query after an Apply
// misses and re-plans on the new snapshot, so a cached plan can never
// answer from pre-update state.
func (db *DB) Query(ctx context.Context, src string) (*Result, *ExecStats, error) {
	return db.view().Query(ctx, src)
}

// prepareCached resolves query text to a prepared query for the given
// snapshot through the plan cache, reporting whether it was a hit. Keys
// combine the snapshot epoch with the normalized text, so plans of
// superseded epochs structurally miss. Cache misses for the same key are
// single-flighted: the plan is built once, concurrent callers block on
// buildMu and pick up the freshly inserted entry.
//
// pinned distinguishes deliberate reads of an old epoch (Snapshot
// handles) from live traffic: a live caller whose snapshot was
// superseded mid-build still executes its plan but does not insert it —
// a superseded entry could never be served to live queries and would
// only keep the old store pinned past Apply's dropStaleEpochs sweep.
func (db *DB) prepareCached(snap *dbSnapshot, src string, pinned bool) (*PreparedQuery, bool, error) {
	if db.cache == nil {
		pq, err := db.prepareSrc(snap, src)
		return pq, false, err
	}
	key := cacheKey(snap.epoch, normalizeQuery(src))
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
	pq, err := db.prepareSrc(snap, src)
	if err != nil {
		return nil, false, err
	}
	db.cache.insert(key, pq, pinned)
	return pq, false, nil
}

// CacheStats reports the plan cache's size and hit/miss/eviction
// counters. Sessions opened without WithPlanCache report the zero value.
func (db *DB) CacheStats() PlanCacheStats {
	if db.cache == nil {
		return PlanCacheStats{}
	}
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
	rel, err := core.QueryDualSimulationCtx(ctx, st, q, db.set.coreConfig())
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
	p, rel, err := prune.PruneQueryCtx(ctx, db.snap.Load().st, q, db.set.coreConfig())
	if err != nil {
		return nil, err
	}
	return &Pruning{p: p, rel: rel}, nil
}

// SimulatePattern computes the largest dual simulation between a
// hand-built pattern graph and the session's current snapshot, honouring
// ctx.
func (db *DB) SimulatePattern(ctx context.Context, p *Pattern) (*PatternRelation, error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	if ctx == nil {
		ctx = context.Background()
	}
	st := db.snap.Load().st
	rel, err := core.DualSimulationCtx(ctx, st, p.p, db.set.coreConfig())
	if err != nil {
		return nil, err
	}
	return &PatternRelation{rel: rel, st: st}, nil
}

// Evaluate runs the session's evaluator over an explicit store —
// normally a pruned store — honouring ctx. Exec composes this for you;
// Evaluate exists for callers orchestrating the stages by hand.
func (db *DB) Evaluate(ctx context.Context, st *Store, q *Query) (*Result, error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := requireStore(st); err != nil {
		return nil, err
	}
	ex, err := db.compile(st, nil, q)
	if err != nil {
		return nil, err
	}
	return engine.Drain(ctx, ex)
}
