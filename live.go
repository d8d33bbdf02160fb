package dualsim

import (
	"context"
	"errors"
	"fmt"
	"time"

	"dualsim/internal/persist"
	"dualsim/internal/storage"
	"dualsim/internal/trace"
)

// ErrNotDurable is returned by Checkpoint on a session opened without a
// data dir (WithDataDir/OpenDir).
var ErrNotDurable = errors.New("dualsim: session has no data dir; open with WithDataDir or OpenDir")

// checkpointEvery is the WAL records since the last checkpoint at which
// a durable session's Apply checkpoints by itself, bounding both the
// log and the replay a recovery runs.
const checkpointEvery = 1024

// This file is the session's write path: Apply mutates the database by
// publishing a new epoch-numbered snapshot, Snapshot pins the current
// epoch for repeatable reads, Compact reclaims dead terms on demand.
//
// Consistency model (MVCC-lite, single writer): snapshots are immutable
// and swapped atomically. Every request — Exec, Query, QueryStream —
// resolves a snapshot exactly once, at planning, and answers
// entirely from it; ExecStats.Epoch reports which. Applies are
// serialized; readers are never blocked and never observe a half-applied
// delta.
//
// The published snapshot is the whole store lineage: the store, its
// epoch, the effective triple changes since the last compaction and the
// compaction count. Apply, Compact and Replay (crash recovery and a
// replica's tail) are one writer over a WAL record kind.

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
	// OverlaySize is the number of effective triple changes (Added +
	// Deleted, summed over applies) since the last compaction, after the
	// operation. Reaching WithCompactionThreshold, or Compact, resets it
	// to 0.
	OverlaySize int `json:"overlaySize"`
	// Compacted reports that the store was compacted (the threshold was
	// crossed, or Compact was called): its dead terms were reclaimed, and
	// node ids changed only if some term was dead.
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
	// session; Apply does once checkpointEvery records accumulated).
	Checkpointed bool `json:"checkpointed,omitempty"`
	// Duration is the end-to-end apply time, including index maintenance
	// and cache invalidation.
	Duration time.Duration `json:"duration"`
	// Trace is the operation's span tree when tracing was enabled on the
	// serving request: wal.append (fsync latency, framed bytes), patch
	// or compact (index maintenance), publish (snapshot swap) and
	// checkpoint. Nil by default.
	Trace *trace.Span `json:"trace,omitempty"`
}

// Apply mutates the database: deletes d.Dels, then adds d.Adds, and
// publishes the result as the next epoch's snapshot. The call is atomic
// — an invalid triple fails the whole delta with nothing changed, not
// the epoch, not the change count, not the dictionary — and serialized
// with other Apply/Compact calls; readers are never blocked.
//
// In-flight executions and PreparedQuery/Snapshot handles keep answering
// from the epoch they pinned; new Exec/Query/QueryStream calls see the new
// snapshot. Plans of superseded epochs are dropped from the plan cache
// (they could never be served anyway — cache keys carry the epoch).
// Index maintenance is incremental: only predicates the delta touches
// are re-indexed — until the effective changes since the last compaction
// reach WithCompactionThreshold, when the store is also compacted in the
// same epoch step.
//
// Applying an empty Delta is a no-op: no epoch bump, no snapshot swap,
// no plan-cache invalidation — ApplyStats.NoOp reports it.
func (db *DB) Apply(ctx context.Context, d Delta) (ApplyStats, error) {
	return db.write(ctx, persist.Record{Kind: persist.RecordApply, Adds: d.Adds, Dels: d.Dels})
}

// Compact reclaims the dictionary space of dead terms — those no live
// triple uses any more — resets the change count and publishes the
// result as the next epoch. The live terms keep their relative order
// under new ids, so node ids change only when some term was dead; with
// none, every predicate index carries over as it is. See
// WithCompactionThreshold for the automatic variant.
func (db *DB) Compact(ctx context.Context) (ApplyStats, error) {
	return db.write(ctx, persist.Record{Kind: persist.RecordCompact})
}

// Replay applies WAL records in epoch order through the one writer — the
// replay path of crash recovery (OpenDir) and of a replica following
// its primary's tail. A record at or below the current epoch is a
// duplicate and is skipped; one past the next epoch is a gap, refused
// with an error wrapping persist.ErrEpochGap; every other record must
// land the session on its stamped epoch, or the replay has diverged.
// A failure stops the replay at the last record applied.
func (db *DB) Replay(ctx context.Context, recs []persist.Record) error {
	for _, rec := range recs {
		cur := db.Epoch()
		switch {
		case rec.Epoch <= cur:
			continue
		case rec.Epoch != cur+1:
			return fmt.Errorf("dualsim: replay at epoch %d: %w: next record is stamped %d", cur, persist.ErrEpochGap, rec.Epoch)
		case rec.Kind != persist.RecordApply && rec.Kind != persist.RecordCompact:
			return fmt.Errorf("dualsim: unknown WAL record kind %d at epoch %d", rec.Kind, rec.Epoch)
		}
		if _, err := db.write(ctx, rec); err != nil {
			return fmt.Errorf("dualsim: replaying WAL record for epoch %d: %w", rec.Epoch, err)
		}
		if got := db.Epoch(); got != rec.Epoch {
			return fmt.Errorf("dualsim: replay diverged: record stamped epoch %d left the session at epoch %d", rec.Epoch, got)
		}
	}
	return nil
}

// write is the one writer: it logs rec at the next epoch on a durable
// session, advances the lineage by step, publishes the result and runs
// the checkpoint policy. Every failure leaves the published snapshot as
// it was.
func (db *DB) write(ctx context.Context, rec persist.Record) (ApplyStats, error) {
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

	cur := db.snap.Load()
	stats := ApplyStats{Epoch: cur.epoch, OverlaySize: cur.pending}
	compact := rec.Kind == persist.RecordCompact
	if !compact && len(rec.Adds) == 0 && len(rec.Dels) == 0 {
		// An empty delta is a no-op: publishing a fresh epoch for it would
		// only invalidate cached plans for a bit-identical snapshot. It is
		// not logged either (it would not advance the epoch on replay).
		stats.NoOp = true
		stats.Duration = time.Since(start)
		return stats, nil
	}

	// Durability comes first: the record is validated (so the log never
	// holds one the replay would reject) and WAL-appended with an fsync
	// before it is applied — an acknowledged write survives a crash, an
	// unacknowledged one is at worst a torn tail record that recovery
	// truncates away.
	rec.Epoch = cur.epoch + 1
	if db.pers != nil {
		if err := storage.ValidateBatch(rec.Adds, rec.Dels); err != nil {
			return stats, err
		}
		var ws persist.AppendStats
		var err error
		if compact {
			ws, err = db.pers.AppendCompact(rec.Epoch)
		} else {
			ws, err = db.pers.AppendApply(rec.Epoch, rec.Adds, rec.Dels)
		}
		if err != nil {
			return stats, fmt.Errorf("dualsim: WAL append: %w", err)
		}
		stats.WALBytes, stats.FsyncLatency = ws.Bytes, ws.FsyncLatency
		sp.Record("wal.append", ws.FsyncLatency).Add("walBytes", ws.Bytes)
	}

	p0 := time.Now()
	next, ps, err := db.step(cur, rec)
	if compact {
		sp.Record("compact", time.Since(p0))
	} else if s := sp.Record("patch", time.Since(p0)); s != nil {
		s.Add("touchedPreds", int64(ps.TouchedPreds))
		s.Add("newTerms", int64(ps.NewTerms))
	}
	if err != nil {
		return stats, err
	}
	stats.Epoch, stats.OverlaySize = next.epoch, next.pending
	stats.Added, stats.Deleted = ps.Added, ps.Deleted
	stats.TouchedPreds, stats.NewTerms = ps.TouchedPreds, ps.NewTerms
	stats.Compacted = next.compactions != cur.compactions

	pb0 := time.Now()
	db.snap.Store(next)
	db.cache.dropStaleEpochs(next.epoch)
	sp.Record("publish", time.Since(pb0))

	// A Compact call is the natural moment to checkpoint: the fresh
	// snapshot makes every WAL record redundant. An Apply checkpoints
	// once checkpointEvery records accumulated. A checkpoint failure
	// must not fail the write: the record is already WAL-acked, applied
	// and published — durability holds, recovery just replays a longer
	// log. Count the degradation (PersistStats.CheckpointFailures, a
	// dualsimd gauge) instead of turning a healthy write into a
	// caller-visible error.
	if db.pers != nil && (compact || db.pers.RecordsSinceCheckpoint() >= checkpointEvery) {
		c0 := time.Now()
		if _, cerr := db.pers.Checkpoint(next.st, next.epoch); cerr != nil {
			db.ckptFails.Add(1)
		} else {
			stats.Checkpointed = true
			sp.Record("checkpoint", time.Since(c0))
		}
	}
	stats.Duration = time.Since(start)
	return stats, nil
}

// step advances the lineage by one WAL record and returns the next
// epoch's snapshot, unpublished. An apply patches the store and, once
// the effective changes since the last compaction reach
// WithCompactionThreshold, compacts it (storage.Store.Compact); a
// compact record compacts it. cur is never modified, so a failed step
// changes nothing.
func (db *DB) step(cur *dbSnapshot, rec persist.Record) (*dbSnapshot, storage.PatchStats, error) {
	next := *cur
	next.epoch++
	var ps storage.PatchStats
	var compact bool
	switch rec.Kind {
	case persist.RecordApply:
		var err error
		if next.st, ps, err = cur.st.Patch(rec.Adds, rec.Dels); err != nil {
			return nil, ps, err
		}
		next.pending += ps.Added + ps.Deleted
		compact = db.set.compactThreshold > 0 && next.pending >= db.set.compactThreshold
	case persist.RecordCompact:
		compact = true
	default:
		return nil, ps, fmt.Errorf("unknown WAL record kind %d", rec.Kind)
	}
	if compact {
		next.st, next.pending = next.st.Compact(), 0
		next.compactions++
		// Only the effective changes survive the compaction: when it
		// renumbers, it lays out every index and may move every id, so
		// the patch's index and dictionary counters no longer describe
		// the published store.
		ps = storage.PatchStats{Added: ps.Added, Deleted: ps.Deleted}
	}
	return &next, ps, nil
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
// primary side of WAL-streaming replication. dualsimd's GET /v1/wal
// answers with them as a WAL file of the records after fromEpoch, CRC
// per record (persist.EncodeWAL).
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
	// CheckpointFailures counts automatic checkpoints (every 1024 WAL
	// records, and on Compact) that failed. The writes they followed are
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

// Snapshot pins the session's current epoch for repeatable reads: every
// query through the returned handle answers from exactly this snapshot,
// regardless of later Apply calls. Snapshots are cheap (a pointer), safe
// for concurrent use, and need no release — dropping the handle releases
// the pin.
func (db *DB) Snapshot() *Snapshot {
	return &Snapshot{db: db, snap: db.snap.Load()}
}

// Snapshot is a read view pinned to one store epoch. It shares the
// session's configuration, plan cache (keyed by its own epoch) and
// execution pools.
type Snapshot struct {
	db   *DB
	snap *dbSnapshot
}

// Epoch returns the pinned epoch.
func (s *Snapshot) Epoch() uint64 { return s.snap.epoch }

// OverlaySize returns the effective triple changes (adds and deletes
// that changed the store) from the last compaction up to the pinned
// epoch; ApplyStats.OverlaySize reports the same count.
func (s *Snapshot) OverlaySize() int { return s.snap.pending }

// Compactions returns how many times the session's store had been
// compacted, automatically or via Compact, up to the pinned epoch.
func (s *Snapshot) Compactions() int { return s.snap.compactions }

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
// pinned epoch — and executes it on the pinned snapshot. The cache keeps
// only plans of the published epoch: once an Apply supersedes the pinned
// one, each read through the handle plans afresh.
func (s *Snapshot) Query(ctx context.Context, src string) (*Result, *ExecStats, error) {
	pq, hit, err := s.prepareCached(src)
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
	pq, hit, err := s.prepareCached(src)
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
