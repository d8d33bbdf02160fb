// Package persist gives the live graph database a durable home: a
// versioned binary snapshot format for whole store epochs plus an
// append-only, CRC-framed, fsync'd write-ahead log of the deltas applied
// since the last snapshot. Boot is "load the latest snapshot, replay the
// WAL tail" — no re-parsing of the original RDF input — mirroring how
// external-memory bisimulation state (Luo et al.) serializes to flat
// sorted runs and how GQ-Fast's compact index layouts load far faster
// than re-ingesting triples.
//
// # On-disk layout
//
// A data directory holds:
//
//	snap-<epoch, 16 hex digits>.dsnap   one file per checkpointed epoch
//	wal.log                             the delta log since that epoch
//	LOCK                                flock'd while a process is attached
//
// The LOCK file carries an exclusive advisory flock for the lifetime of
// a Log (on unix): a second process cannot attach to a live data dir —
// a rolling restart must wait for the old daemon's drain — and because
// the lock dies with the process, a SIGKILL never blocks recovery.
//
// Checkpoints are atomic (written to a temp file, fsync'd, renamed, the
// directory fsync'd) and self-contained; after a successful checkpoint
// the WAL is truncated back to its header and older snapshot files are
// deleted best-effort. Recovery always picks the snapshot with the
// highest epoch and skips WAL records at or below it, so a crash between
// "snapshot renamed" and "WAL truncated" is harmless.
//
// # Snapshot file format (version 1)
//
//	8 bytes   magic "DSIMSNP1"
//	4 bytes   format version, uint32 little-endian
//	8 bytes   store epoch, uint64 little-endian
//	n bytes   store body (storage.EncodeSnapshot: dictionary tables,
//	          then one delta-encoded PSO run per predicate)
//	4 bytes   IEEE CRC-32 of everything after the magic, little-endian
//
// # WAL file format (version 1)
//
//	8 bytes   magic "DSIMWAL1"
//	4 bytes   format version, uint32 little-endian
//
// followed by zero or more records, each framed as
//
//	4 bytes   payload length, uint32 little-endian
//	4 bytes   IEEE CRC-32 of the payload, little-endian
//	n bytes   payload
//
// with the payload
//
//	1 byte    record kind: 1 = apply, 2 = compact
//	8 bytes   post-operation epoch, uint64 little-endian
//	apply only: uvarint add count, the added triples, uvarint delete
//	count, the deleted triples (subject and predicate length-prefixed,
//	object kind byte + length-prefixed value)
//
// Every append is fsync'd before the caller acknowledges the delta, so
// an acknowledged Apply survives a crash. A torn tail — a partial or
// CRC-failing final record from a crash mid-append — is truncated away
// on recovery; everything before it replays.
//
// # Replication
//
// GET /v1/wal answers with a WAL file of the records after fromEpoch,
// CRC per record, in exactly these bytes (EncodeWAL). Replicas read it
// with ReadWAL, the reader recovery uses, and refuse a torn tail whole.
//
// # Versioning rules
//
// The magic identifies the file family and never changes; the version
// field identifies the layout. Rules for evolving the formats:
//
//   - Readers MUST reject files whose magic does not match exactly and
//     files whose version they do not know — never guess at a layout.
//   - Any change to the byte layout (field added, width changed, varint
//     scheme altered, new WAL record kind with a payload an old reader
//     would misparse) bumps the version.
//   - Writers always write the newest version. Readers should keep
//     decoding at least one version back, so a rolling upgrade can boot
//     from the previous release's checkpoint; after the first new-format
//     checkpoint the old files are gone.
//   - New WAL record kinds are additive only if old readers can safely
//     fail on them (they cannot skip what they cannot interpret — a
//     replayed log must be complete); treat a new kind as a version
//     bump.
//   - Snapshot bodies delegate to storage.EncodeSnapshot; a body change
//     is a snapshot-format version bump here, even though the code lives
//     in the storage package.
package persist
