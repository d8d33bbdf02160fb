package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dualsim/internal/rdf"
	"dualsim/internal/storage"
)

// Log is the durable side of one live session: it owns a data
// directory's WAL file handle and checkpoint bookkeeping. The session
// layer serializes writers (its applyMu), but Log carries its own lock
// so misuse degrades to blocking rather than interleaved frames.
type Log struct {
	mu   sync.Mutex
	dir  string
	wal  *os.File
	lock *os.File // flock'd LOCK file; nil on non-unix platforms
	buf  []byte   // scratch frame buffer, reused across appends
	err  error    // poisoned: an append failure could not be rolled back

	walBytes    int64 // current log size beyond the header
	walRecords  int64 // records in the current log
	sinceCkpt   int64 // records appended since the last checkpoint
	checkpoints int64
	ckptEpoch   uint64
	snapBytes   int64
}

// AppendStats reports one WAL append.
type AppendStats struct {
	// Bytes is the framed record size written to the log.
	Bytes int64
	// FsyncLatency is the time the fsync making the record durable took.
	FsyncLatency time.Duration
}

// CheckpointStats reports one checkpoint.
type CheckpointStats struct {
	// Epoch is the checkpointed store epoch.
	Epoch uint64
	// SnapshotBytes is the size of the written snapshot file.
	SnapshotBytes int64
	// WALReclaimed is how many log bytes the truncation released.
	WALReclaimed int64
	// Duration is the end-to-end checkpoint time (snapshot write, fsync,
	// rename, WAL truncation).
	Duration time.Duration
}

// Stats is the log's cumulative bookkeeping, exposed by the session as
// PersistStats and by dualsimd as /metrics gauges.
type Stats struct {
	WALBytes            int64
	WALRecords          int64
	RecordsSinceCkpt    int64
	Checkpoints         int64
	LastCheckpointEpoch uint64
	SnapshotBytes       int64
}

// Recovered is the state a warm start boots from: the latest snapshot
// plus the WAL records newer than it, in replay order.
type Recovered struct {
	Store *storage.Store
	// SnapshotEpoch is the epoch of the loaded snapshot; Tail replays
	// the store forward from there.
	SnapshotEpoch uint64
	Tail          []Record
	// TornTail reports that a partial or corrupt final record — a crash
	// mid-append — was truncated away during recovery.
	TornTail bool
}

// Init creates a fresh durable directory for a store at the given
// epoch: an initial checkpoint plus an empty WAL, under an exclusive
// process lock. It refuses a directory that already holds state — warm
// starts go through Open, and silently overwriting a durable store
// would be data loss.
func Init(dir string, st *storage.Store, epoch uint64) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*Log, error) {
		if lock != nil {
			err = errors.Join(err, lock.Close())
		}
		return nil, err
	}
	if HasState(dir) {
		return fail(fmt.Errorf("persist: %s already holds a durable store; recover it with Open (or point at an empty dir)", dir))
	}
	n, err := WriteSnapshot(dir, st, epoch)
	if err != nil {
		return fail(err)
	}
	f, err := createWAL(filepath.Join(dir, walName))
	if err != nil {
		return fail(err)
	}
	return &Log{dir: dir, wal: f, lock: lock, checkpoints: 1, ckptEpoch: epoch, snapBytes: n}, nil
}

// Open recovers a durable directory: it loads the newest snapshot,
// scans the WAL (truncating a torn tail), and returns the log opened
// for append together with the recovered state. Returns ErrNoState for
// a directory Init never touched.
func Open(dir string) (*Log, *Recovered, error) {
	if _, err := os.Stat(dir); err != nil {
		if os.IsNotExist(err) {
			return nil, nil, fmt.Errorf("%w: %s", ErrNoState, dir)
		}
		return nil, nil, fmt.Errorf("persist: %w", err)
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, nil, err
	}
	fail := func(err error) (*Log, *Recovered, error) {
		if lock != nil {
			err = errors.Join(err, lock.Close())
		}
		return nil, nil, err
	}
	st, epoch, snapBytes, err := ReadLatestSnapshot(dir)
	if err != nil {
		return fail(err)
	}
	walPath := filepath.Join(dir, walName)
	recs, goodLen, torn, err := scanWAL(walPath)
	if err != nil {
		return fail(err)
	}
	f, goodLen, err := openWALForAppend(walPath, goodLen)
	if err != nil {
		return fail(err)
	}
	rec := &Recovered{Store: st, SnapshotEpoch: epoch, TornTail: torn}
	for _, r := range recs {
		if r.Epoch > epoch {
			rec.Tail = append(rec.Tail, r)
		}
	}
	l := &Log{
		dir:        dir,
		wal:        f,
		lock:       lock,
		walBytes:   goodLen - walHeaderLen,
		walRecords: int64(len(recs)),
		sinceCkpt:  int64(len(rec.Tail)),
		ckptEpoch:  epoch,
		snapBytes:  snapBytes,
	}
	return l, rec, nil
}

// AppendApply logs one delta batch, durably (fsync'd before return).
// epoch is the post-apply epoch the record replays to.
func (l *Log) AppendApply(epoch uint64, adds, dels []rdf.Triple) (AppendStats, error) {
	return l.append(Record{Kind: RecordApply, Epoch: epoch, Adds: adds, Dels: dels})
}

// AppendCompact logs an on-demand compaction, durably.
func (l *Log) AppendCompact(epoch uint64) (AppendStats, error) {
	return l.append(Record{Kind: RecordCompact, Epoch: epoch})
}

func (l *Log) append(r Record) (AppendStats, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wal == nil {
		return AppendStats{}, fmt.Errorf("persist: log is closed")
	}
	if l.err != nil {
		return AppendStats{}, fmt.Errorf("persist: log poisoned by an earlier unrecoverable append failure: %w", l.err)
	}
	l.buf = appendFrame(l.buf[:0], r)
	frame := l.buf
	if cap(l.buf) > 1<<20 {
		// Don't let one bulk delta pin a huge scratch buffer for the
		// session's lifetime; steady-state records are tiny.
		l.buf = nil
	}
	// Enforce the bound recovery enforces: a frame beyond maxRecordBytes
	// would be acknowledged here only to be treated as a torn tail (and
	// truncated, with everything after it) on the next boot — and past
	// 4 GB the length field itself would wrap. Refuse before acking.
	if n := len(frame) - walFrameLen; n > maxRecordBytes {
		return AppendStats{}, fmt.Errorf("persist: WAL record of %d bytes exceeds the %d-byte bound; split the delta", n, maxRecordBytes)
	}
	if _, err := l.wal.Write(frame); err != nil {
		l.rollback(err)
		return AppendStats{}, fmt.Errorf("persist: WAL append: %w", err)
	}
	start := time.Now()
	if err := l.wal.Sync(); err != nil {
		l.rollback(err)
		return AppendStats{}, fmt.Errorf("persist: WAL fsync: %w", err)
	}
	st := AppendStats{Bytes: int64(len(frame)), FsyncLatency: time.Since(start)}
	l.walBytes += st.Bytes
	l.walRecords++
	l.sinceCkpt++
	return st, nil
}

// rollback repairs the log after a failed (unacknowledged) append:
// whatever partial frame reached the file is truncated back to the last
// good offset, so a later successful append does not land beyond a torn
// frame (recovery would then discard it as part of the torn tail), and
// a fully-written-but-unsynced frame cannot survive as a duplicate of
// the retry's epoch. If even the truncation fails the log is poisoned —
// every further append is refused rather than risking silent loss.
func (l *Log) rollback(cause error) {
	good := walHeaderLen + l.walBytes
	if err := l.wal.Truncate(good); err != nil {
		l.err = fmt.Errorf("%w (rollback truncate also failed: %v)", cause, err)
		return
	}
	if _, err := l.wal.Seek(good, 0); err != nil {
		l.err = fmt.Errorf("%w (rollback seek also failed: %v)", cause, err)
	}
}

// Checkpoint writes the store as the snapshot of epoch, truncates the
// WAL back to its header (every logged record is at or below epoch —
// the caller checkpoints the published state under its write lock), and
// prunes older snapshot files.
func (l *Log) Checkpoint(st *storage.Store, epoch uint64) (CheckpointStats, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wal == nil {
		return CheckpointStats{}, fmt.Errorf("persist: log is closed")
	}
	start := time.Now()
	n, err := WriteSnapshot(l.dir, st, epoch)
	if err != nil {
		return CheckpointStats{}, err
	}
	reclaimed := l.walBytes
	if err := l.wal.Truncate(walHeaderLen); err != nil {
		return CheckpointStats{}, fmt.Errorf("persist: WAL truncation: %w", err)
	}
	if _, err := l.wal.Seek(walHeaderLen, 0); err != nil {
		return CheckpointStats{}, fmt.Errorf("persist: %w", err)
	}
	if err := l.wal.Sync(); err != nil {
		return CheckpointStats{}, fmt.Errorf("persist: WAL fsync: %w", err)
	}
	l.walBytes = 0
	l.walRecords = 0
	l.sinceCkpt = 0
	l.checkpoints++
	l.ckptEpoch = epoch
	l.snapBytes = n
	pruneSnapshots(l.dir, epoch)
	return CheckpointStats{
		Epoch:         epoch,
		SnapshotBytes: n,
		WALReclaimed:  reclaimed,
		Duration:      time.Since(start),
	}, nil
}

// TailSince returns the WAL records with epochs beyond afterEpoch, in
// replay order, together with the last checkpoint epoch — the primary
// side of WAL-streaming replication. The read runs under the log mutex,
// so it can never observe a half-appended frame or race a checkpoint's
// truncation.
//
// When afterEpoch predates the last checkpoint, the records bridging
// the gap were truncated away and the caller cannot catch up from the
// log alone: TailSince returns ErrEpochGap (plus the checkpoint epoch),
// and a replica must re-bootstrap from a snapshot instead.
func (l *Log) TailSince(afterEpoch uint64) ([]Record, uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wal == nil {
		return nil, 0, fmt.Errorf("persist: log is closed")
	}
	if afterEpoch < l.ckptEpoch {
		return nil, l.ckptEpoch, fmt.Errorf("%w: epochs (%d, %d] were checkpointed away; bootstrap from the snapshot of epoch %d",
			ErrEpochGap, afterEpoch, l.ckptEpoch, l.ckptEpoch)
	}
	recs, _, _, err := scanWAL(filepath.Join(l.dir, walName))
	if err != nil {
		return nil, l.ckptEpoch, err
	}
	var out []Record
	for _, r := range recs {
		if r.Epoch > afterEpoch {
			out = append(out, r)
		}
	}
	return out, l.ckptEpoch, nil
}

// RecordsSinceCheckpoint returns how many WAL records the next
// checkpoint would make redundant — the count a durable session's
// automatic checkpoint tests.
func (l *Log) RecordsSinceCheckpoint() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sinceCkpt
}

// Stats returns the cumulative log statistics.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		WALBytes:            l.walBytes,
		WALRecords:          l.walRecords,
		RecordsSinceCkpt:    l.sinceCkpt,
		Checkpoints:         l.checkpoints,
		LastCheckpointEpoch: l.ckptEpoch,
		SnapshotBytes:       l.snapBytes,
	}
}

// Dir returns the data directory.
func (l *Log) Dir() string { return l.dir }

// Close releases the WAL file handle and the data-dir lock. Appends
// were already fsync'd, so Close loses nothing; it is safe to call
// twice.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wal == nil {
		return nil
	}
	err := l.wal.Close()
	l.wal = nil
	if l.lock != nil {
		err = errors.Join(err, l.lock.Close()) // closing drops the flock
		l.lock = nil
	}
	return err
}
