package dualsim

import (
	"context"
	"errors"
	"fmt"
	"time"

	"dualsim/internal/delta"
	"dualsim/internal/partition"
	"dualsim/internal/persist"
	"dualsim/internal/storage"
	"dualsim/internal/trace"
)

// ErrNotDurable is returned by Checkpoint on a session opened without a
// data dir (WithDataDir/OpenDir).
var ErrNotDurable = errors.New("dualsim: session has no data dir; open with WithDataDir or OpenDir")

// This file is the session surface of the live-update subsystem
// (internal/delta): Apply mutates the database by publishing a new
// epoch-numbered snapshot, Snapshot pins the current epoch for
// repeatable reads, Compact consolidates the overlay on demand.
//
// Consistency model (MVCC-lite, single writer): snapshots are immutable
// and swapped atomically. Every request — Exec, Query, each ExecBatch
// request — resolves a snapshot exactly once, at planning, and answers
// entirely from it; ExecStats.Epoch reports which. Applies are
// serialized; readers are never blocked and never observe a half-applied
// delta.

// Delta is one batch of mutations for Apply. Dels are applied before
// Adds: a triple occurring in both ends up present. Deleting an absent
// triple and re-adding a present one are no-ops.
type Delta struct {
	Adds, Dels []Triple
}

// ApplyStats reports one Apply or Compact. JSON tags are part of the
// serving wire format (see ExecStats).
//
//dualsim:wire
type ApplyStats struct {
	// Epoch is the epoch of the newly published snapshot (or, for a
	// no-op Apply of an empty Delta, the unchanged current epoch).
	Epoch uint64 `json:"epoch"`
	// Added and Deleted count the effective triple changes, after no-op
	// elimination.
	Added   int `json:"added"`
	Deleted int `json:"deleted"`
	// OverlaySize is the overlay ledger size after the operation —
	// staged adds plus tombstoned deletes relative to the last
	// compacted base. Reaching WithCompactionThreshold resets it to 0.
	OverlaySize int `json:"overlaySize"`
	// Compacted reports that the store was rebuilt from scratch (the
	// threshold was crossed, or Compact was called).
	Compacted bool `json:"compacted,omitempty"`
	// NoOp reports that the delta was empty and nothing was published:
	// no epoch bump, no snapshot swap, no plan-cache invalidation.
	NoOp bool `json:"noOp,omitempty"`
	// TouchedPreds counts predicate indexes rebuilt incrementally and
	// NewTerms the dictionary growth (both 0 when Compacted).
	TouchedPreds int `json:"touchedPreds,omitempty"`
	NewTerms     int `json:"newTerms,omitempty"`
	// WALBytes is the framed size of the write-ahead log record this
	// operation appended, and FsyncLatency the time the fsync making it
	// durable took — both 0 on a session without a data dir. The WAL
	// write happens before the delta is applied or acknowledged.
	WALBytes     int64         `json:"walBytes,omitempty"`
	FsyncLatency time.Duration `json:"fsyncLatency,omitempty"`
	// Checkpointed reports that the operation rolled the WAL into a
	// fresh snapshot afterwards (Compact always does on a durable
	// session; Apply does when WithCheckpointEvery triggered).
	Checkpointed bool `json:"checkpointed,omitempty"`
	// FingerprintRebuilt reports that the session's fingerprint summary
	// was maintained across the update: the partition is advanced
	// incrementally around the touched nodes (re-refined in full only
	// after a compaction), but condensing it back into a summary graph
	// re-scans the store — an O(|E_DB|) write amplification per Apply on
	// fingerprinted sessions.
	FingerprintRebuilt bool `json:"fingerprintRebuilt,omitempty"`
	// Duration is the end-to-end apply time, including index and
	// fingerprint maintenance and cache invalidation.
	Duration time.Duration `json:"duration"`
	// Trace is the operation's span tree when tracing was enabled on the
	// serving request: wal.append (fsync latency, framed bytes), patch
	// (index maintenance), publish (snapshot swap and fingerprint) and
	// checkpoint. Nil by default.
	Trace *trace.Span `json:"trace,omitempty"`
}

// Apply mutates the database: deletes d.Dels, then adds d.Adds, and
// publishes the result as the next epoch's snapshot. The call is atomic
// — an invalid triple fails the whole delta with nothing changed — and
// serialized with other Apply/Compact calls; readers are never blocked.
//
// In-flight executions and PreparedQuery/Snapshot handles keep answering
// from the epoch they pinned; new Exec/Query/ExecBatch calls see the new
// snapshot. Plans of superseded epochs are dropped from the plan cache
// (they could never be served anyway — cache keys carry the epoch).
// Index maintenance is incremental: only predicates the delta touches
// are re-indexed, and a session fingerprint is advanced around the
// touched nodes rather than re-refined — until the overlay crosses
// WithCompactionThreshold, when the whole store is consolidated.
//
// Applying an empty Delta is a no-op: no epoch bump, no snapshot swap,
// no plan-cache invalidation — ApplyStats.NoOp reports it.
func (db *DB) Apply(ctx context.Context, d Delta) (ApplyStats, error) {
	if db.closed.Load() {
		return ApplyStats{}, ErrClosed
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return ApplyStats{}, err
	}
	sp := trace.SpanFromContext(ctx)
	start := time.Now()
	db.applyMu.Lock()
	defer db.applyMu.Unlock()

	// Durability comes first: the delta is validated (so the log never
	// holds a record the replay would reject) and WAL-appended with an
	// fsync before it is applied — an acknowledged Apply survives a
	// crash, an unacknowledged one is at worst a torn tail record that
	// recovery truncates away. Empty deltas are no-ops and are not
	// logged (they would not advance the epoch on replay either).
	var walStats persist.AppendStats
	if db.pers != nil && (len(d.Adds) > 0 || len(d.Dels) > 0) {
		// Pre-validate with the exact check the apply (and any later
		// replay) performs, so the WAL never records a rejectable batch.
		if err := storage.ValidateBatch(d.Adds, d.Dels); err != nil {
			return ApplyStats{Epoch: db.overlay.Epoch(), OverlaySize: db.overlay.Size()}, err
		}
		ws, err := db.pers.AppendApply(db.overlay.Epoch()+1, d.Adds, d.Dels)
		if err != nil {
			return ApplyStats{Epoch: db.overlay.Epoch(), OverlaySize: db.overlay.Size()},
				fmt.Errorf("dualsim: WAL append: %w", err)
		}
		walStats = ws
		sp.Record("wal.append", walStats.FsyncLatency).Add("walBytes", walStats.Bytes)
	}

	p0 := time.Now()
	st, res, err := db.overlay.Apply(delta.Delta{Adds: d.Adds, Dels: d.Dels})
	if ps := sp.Record("patch", time.Since(p0)); ps != nil {
		ps.Add("touchedPreds", int64(res.Patch.TouchedPreds))
		ps.Add("newTerms", int64(res.Patch.NewTerms))
	}
	stats := ApplyStats{
		Epoch:        res.Epoch,
		Added:        res.Added,
		Deleted:      res.Deleted,
		OverlaySize:  res.OverlaySize,
		Compacted:    res.Compacted,
		NoOp:         res.NoOp,
		TouchedPreds: res.Patch.TouchedPreds,
		NewTerms:     res.Patch.NewTerms,
		WALBytes:     walStats.Bytes,
		FsyncLatency: walStats.FsyncLatency,
	}
	if err != nil {
		return stats, err
	}
	if res.NoOp {
		// Empty delta: nothing to publish — the current snapshot stays
		// live, cached plans stay valid, the fingerprint is untouched.
		stats.Duration = time.Since(start)
		return stats, nil
	}
	pb0 := time.Now()
	err = db.publish(st, res, &stats)
	if fsp := sp.Record("publish", time.Since(pb0)); fsp != nil && stats.FingerprintRebuilt {
		fsp.SetAttr("fingerprint", "rebuilt")
	}
	if err == nil && db.pers != nil && db.set.checkpointEvery > 0 &&
		db.pers.RecordsSinceCheckpoint() >= int64(db.set.checkpointEvery) {
		// A checkpoint failure must not fail the Apply: the delta is
		// already WAL-acked, applied and published — durability holds,
		// recovery just replays a longer log. Count the degradation
		// (PersistStats.CheckpointFailures, a dualsimd gauge) instead of
		// turning a healthy write into a caller-visible error on every
		// subsequent Apply.
		c0 := time.Now()
		if _, cerr := db.pers.Checkpoint(st, res.Epoch); cerr != nil {
			db.ckptFails.Add(1)
		} else {
			stats.Checkpointed = true
			sp.Record("checkpoint", time.Since(c0))
		}
	}
	stats.Duration = time.Since(start)
	return stats, err
}

// Compact consolidates the live store on demand: the current snapshot is
// rebuilt into a pristine store (fresh dictionary, reclaiming the space
// of tombstoned triples and dead terms), the overlay ledger resets, and
// the result is published as the next epoch. See
// WithCompactionThreshold for the automatic variant.
func (db *DB) Compact(ctx context.Context) (ApplyStats, error) {
	if db.closed.Load() {
		return ApplyStats{}, ErrClosed
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return ApplyStats{}, err
	}
	sp := trace.SpanFromContext(ctx)
	start := time.Now()
	db.applyMu.Lock()
	defer db.applyMu.Unlock()

	var walStats persist.AppendStats
	if db.pers != nil {
		ws, err := db.pers.AppendCompact(db.overlay.Epoch() + 1)
		if err != nil {
			return ApplyStats{Epoch: db.overlay.Epoch()}, fmt.Errorf("dualsim: WAL append: %w", err)
		}
		walStats = ws
		sp.Record("wal.append", walStats.FsyncLatency).Add("walBytes", walStats.Bytes)
	}
	p0 := time.Now()
	st, res, err := db.overlay.Compact()
	sp.Record("compact", time.Since(p0))
	stats := ApplyStats{
		Epoch:        res.Epoch,
		Compacted:    true,
		WALBytes:     walStats.Bytes,
		FsyncLatency: walStats.FsyncLatency,
	}
	if err != nil {
		return stats, err
	}
	pb0 := time.Now()
	err = db.publish(st, res, &stats)
	if fsp := sp.Record("publish", time.Since(pb0)); fsp != nil && stats.FingerprintRebuilt {
		fsp.SetAttr("fingerprint", "rebuilt")
	}
	if err == nil && db.pers != nil {
		// A compaction already rebuilt the whole store — the natural
		// moment to checkpoint: the fresh snapshot makes every WAL record
		// redundant, and the next boot loads it directly instead of
		// replaying the log and re-compacting. Like the auto-checkpoint in
		// Apply, a failure here is degradation, not an error: the compact
		// record is WAL-acked, so recovery replays it.
		c0 := time.Now()
		if _, cerr := db.pers.Checkpoint(st, res.Epoch); cerr != nil {
			db.ckptFails.Add(1)
		} else {
			stats.Checkpointed = true
			sp.Record("checkpoint", time.Since(c0))
		}
	}
	stats.Duration = time.Since(start)
	return stats, err
}

// CheckpointStats reports one Checkpoint. JSON tags are part of the
// serving wire format (see ExecStats).
//
//dualsim:wire
type CheckpointStats struct {
	// Epoch is the checkpointed store epoch.
	Epoch uint64 `json:"epoch"`
	// SnapshotBytes is the size of the written snapshot file.
	SnapshotBytes int64 `json:"snapshotBytes"`
	// WALReclaimed is how many write-ahead-log bytes the post-snapshot
	// truncation released.
	WALReclaimed int64 `json:"walReclaimed"`
	// Duration is the end-to-end checkpoint time.
	Duration time.Duration `json:"duration"`
}

// Checkpoint rolls the durable session's state forward on disk: the
// current snapshot is written as a checkpoint file (atomically: temp
// file, fsync, rename) and the write-ahead log is truncated — the next
// OpenDir boots from the snapshot with nothing to replay. Serialized
// with Apply/Compact; readers are never blocked. Returns ErrNotDurable
// on a session without a data dir.
func (db *DB) Checkpoint(ctx context.Context) (CheckpointStats, error) {
	if db.closed.Load() {
		return CheckpointStats{}, ErrClosed
	}
	if db.pers == nil {
		return CheckpointStats{}, ErrNotDurable
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return CheckpointStats{}, err
	}
	db.applyMu.Lock()
	defer db.applyMu.Unlock()
	snap := db.snap.Load()
	cs, err := db.pers.Checkpoint(snap.st, snap.epoch)
	if err != nil {
		return CheckpointStats{}, err
	}
	return CheckpointStats{
		Epoch:         cs.Epoch,
		SnapshotBytes: cs.SnapshotBytes,
		WALReclaimed:  cs.WALReclaimed,
		Duration:      cs.Duration,
	}, nil
}

// Durable reports whether the session persists to a data dir.
func (db *DB) Durable() bool { return db.pers != nil }

// WALTail returns the durable session's WAL records with epochs beyond
// afterEpoch, in replay order, plus the last checkpoint epoch — the
// primary side of WAL-streaming replication (dualsimd's GET /v1/wal).
// Returns ErrNotDurable without a data dir, and persist.ErrEpochGap
// when a checkpoint already truncated the requested range (the caller
// must re-bootstrap from a snapshot instead of tailing).
func (db *DB) WALTail(afterEpoch uint64) ([]persist.Record, uint64, error) {
	if db.closed.Load() {
		return nil, 0, ErrClosed
	}
	if db.pers == nil {
		return nil, 0, ErrNotDurable
	}
	return db.pers.TailSince(afterEpoch)
}

// PersistStats is the durable session's cumulative persistence
// bookkeeping (zero value on a non-durable session). JSON tags follow
// the serving wire format.
//
//dualsim:wire
type PersistStats struct {
	Durable             bool   `json:"durable"`
	WALBytes            int64  `json:"walBytes"`
	WALRecords          int64  `json:"walRecords"`
	Checkpoints         int64  `json:"checkpoints"`
	LastCheckpointEpoch uint64 `json:"lastCheckpointEpoch"`
	SnapshotBytes       int64  `json:"snapshotBytes"`
	// CheckpointFailures counts automatic checkpoints (WithCheckpointEvery,
	// checkpoint-on-Compact) that failed. The writes they followed are
	// still durable — recovery just replays a longer WAL — but a growing
	// count means snapshots are not being written (e.g. disk full) and
	// recovery time is no longer bounded.
	CheckpointFailures int64 `json:"checkpointFailures"`
}

// PersistStats returns the session's persistence counters — WAL size
// and record count, completed checkpoints, the last checkpointed epoch
// and the snapshot file size. dualsimd exposes them as /metrics gauges.
func (db *DB) PersistStats() PersistStats {
	if db.pers == nil {
		return PersistStats{}
	}
	s := db.pers.Stats()
	return PersistStats{
		Durable:             true,
		WALBytes:            s.WALBytes,
		WALRecords:          s.WALRecords,
		Checkpoints:         s.Checkpoints,
		LastCheckpointEpoch: s.LastCheckpointEpoch,
		SnapshotBytes:       s.SnapshotBytes,
		CheckpointFailures:  db.ckptFails.Load(),
	}
}

// publish maintains the fingerprint across the update, swaps in the new
// snapshot and invalidates superseded plans. Called with applyMu held.
func (db *DB) publish(st *storage.Store, res delta.Result, stats *ApplyStats) error {
	snap := &dbSnapshot{st: st, epoch: res.Epoch}
	var fpErr error
	if db.wantFP {
		snap.fp, fpErr = db.maintainFingerprint(st, res)
		stats.FingerprintRebuilt = snap.fp != nil
	}
	db.snap.Store(snap)
	if db.cache != nil {
		db.cache.dropStaleEpochs(res.Epoch)
	}
	if fpErr != nil {
		// The snapshot is live and correct — the fingerprint is purely an
		// optimization — but the session degraded; surface it.
		return fmt.Errorf("dualsim: fingerprint maintenance: %w (snapshot %d published without pre-filter)", fpErr, res.Epoch)
	}
	return nil
}

// maintainFingerprint carries the session fingerprint across an update.
// Small incremental patches advance the previous epoch's partition
// around the touched nodes (sound for any partition — see
// partition.Advance), skipping the k refinement rounds; a compaction
// renumbers every node, so the partition is re-refined from scratch
// there, restoring full precision. Condensing the partition into the
// summary graph is not incremental: partition.Fingerprint re-scans the
// store, so fingerprinted sessions pay O(|E_DB|) per Apply.
func (db *DB) maintainFingerprint(st *storage.Store, res delta.Result) (*Fingerprint, error) {
	if res.Compacted || db.fpPart == nil {
		fp, err := BuildFingerprint(st, db.set.fingerprintK)
		if err != nil {
			return nil, err
		}
		db.fpPart = fp.sum.Part
		return fp, nil
	}
	part := partition.Advance(st, db.fpPart, res.Patch.TouchedNodes)
	sum, err := partition.Fingerprint(st, part)
	if err != nil {
		return nil, err
	}
	db.fpPart = part
	return &Fingerprint{sum: sum, st: st}, nil
}

// OverlaySize returns the live-update ledger size: staged adds plus
// tombstoned deletes relative to the last compacted base.
func (db *DB) OverlaySize() int { return db.overlay.Size() }

// Compactions returns how many times the session's store has been
// compacted (automatically or via Compact).
func (db *DB) Compactions() int { return db.overlay.Compactions() }

// Snapshot pins the session's current epoch for repeatable reads: every
// query through the returned handle answers from exactly this snapshot,
// regardless of later Apply calls. Snapshots are cheap (a pointer), safe
// for concurrent use, and need no release — dropping the handle releases
// the pin.
func (db *DB) Snapshot() *Snapshot {
	return &Snapshot{db: db, snap: db.snap.Load(), pinned: true}
}

// Snapshot is a read view pinned to one store epoch. It shares the
// session's configuration, plan cache (keyed by its own epoch) and
// execution pools.
type Snapshot struct {
	db   *DB
	snap *dbSnapshot
	// pinned marks a deliberate read of this epoch, whose plans are cached
	// even once the epoch is superseded (see prepareCached); the session's
	// own live view leaves it false.
	pinned bool
}

// Epoch returns the pinned epoch.
func (s *Snapshot) Epoch() uint64 { return s.snap.epoch }

// Store returns the pinned store.
func (s *Snapshot) Store() *Store { return s.snap.st }

// Prepare plans a query against the pinned snapshot.
func (s *Snapshot) Prepare(src string) (*PreparedQuery, error) {
	return s.db.prepareSrc(s.snap, src)
}

// Exec is the one-shot pinned execution: Prepare + Exec on the pinned
// snapshot.
func (s *Snapshot) Exec(ctx context.Context, src string) (*Result, *ExecStats, error) {
	pq, err := s.Prepare(src)
	if err != nil {
		return nil, nil, err
	}
	recordPrepareSpans(ctx, pq, false)
	return pq.Exec(ctx)
}

// Query resolves src through the session's plan cache — scoped to the
// pinned epoch — and executes it on the pinned snapshot. Repeated pinned
// reads of one text plan once, like live ones.
func (s *Snapshot) Query(ctx context.Context, src string) (*Result, *ExecStats, error) {
	pq, hit, err := s.db.prepareCached(s.snap, src, s.pinned)
	if err != nil {
		return nil, nil, err
	}
	recordPrepareSpans(ctx, pq, hit)
	res, stats, err := pq.Exec(ctx)
	if stats != nil {
		stats.CacheHit = hit
	}
	return res, stats, err
}

// QueryStream resolves src through the session's plan cache (scoped to
// the pinned epoch) and returns a streaming cursor over the pinned
// snapshot: pruning runs eagerly, rows are computed as the caller pulls
// them. The cache hit is reported in the cursor's Stats. The serving
// layer's NDJSON streams are built on this — the first row can be on
// the wire before the last one is computed.
func (s *Snapshot) QueryStream(ctx context.Context, src string) (*Rows, error) {
	pq, hit, err := s.db.prepareCached(s.snap, src, s.pinned)
	if err != nil {
		return nil, err
	}
	recordPrepareSpans(ctx, pq, hit)
	rows, err := pq.Stream(ctx)
	if err != nil {
		return nil, err
	}
	rows.stats.CacheHit = hit
	return rows, nil
}
