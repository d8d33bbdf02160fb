package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"dualsim/internal/storage"
)

const (
	snapMagic = "DSIMSNP1"
	walMagic  = "DSIMWAL1"

	// Version is the current layout version of both file families (they
	// evolve together; see the package docs for the rules).
	Version = 1

	snapSuffix = ".dsnap"
	walName    = "wal.log"
)

// ErrNoState reports a data directory without a usable snapshot.
var ErrNoState = errors.New("persist: data dir holds no snapshot")

func snapName(epoch uint64) string {
	return fmt.Sprintf("snap-%016x%s", epoch, snapSuffix)
}

// snapEpochOf parses the epoch out of a snapshot file name.
func snapEpochOf(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, snapSuffix) {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), snapSuffix)
	epoch, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return epoch, true
}

// snapshotFiles lists the directory's snapshot files, sorted by epoch.
func snapshotFiles(dir string) ([]string, []uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, nil
		}
		return nil, nil, err
	}
	type snap struct {
		name  string
		epoch uint64
	}
	var snaps []snap
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if epoch, ok := snapEpochOf(e.Name()); ok {
			snaps = append(snaps, snap{name: e.Name(), epoch: epoch})
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].epoch < snaps[j].epoch })
	names := make([]string, len(snaps))
	epochs := make([]uint64, len(snaps))
	for i, s := range snaps {
		names[i] = filepath.Join(dir, s.name)
		epochs[i] = s.epoch
	}
	return names, epochs, nil
}

// HasState reports whether dir holds a durable store (at least one
// snapshot file) — the warm-vs-cold boot decision for dualsimd.
func HasState(dir string) bool {
	names, _, err := snapshotFiles(dir)
	return err == nil && len(names) > 0
}

// EncodeSnapshotTo writes the DSIMSNP1 snapshot container — magic,
// CRC-covered version/epoch header and store body, trailing checksum —
// to an arbitrary writer, computing the CRC on the fly. Checkpoints
// write files through it; the serving layer streams the same container
// over HTTP for replica bootstrap, so a replica's decoder and the
// crash-recovery reader exercise one format.
func EncodeSnapshotTo(w io.Writer, st *storage.Store, epoch uint64) error {
	return encodeContainer(w, epoch, st.EncodeSnapshot)
}

// EncodeSliceTo writes the same container around the body of the store
// cut down to the given predicates (storage.EncodeSlice) — the answer of
// a predicate export, decoded by the same DecodeSnapshot.
func EncodeSliceTo(w io.Writer, st *storage.Store, preds []storage.PredID, epoch uint64) error {
	return encodeContainer(w, epoch, func(w io.Writer) error { return st.EncodeSlice(w, preds) })
}

func encodeContainer(w io.Writer, epoch uint64, body func(io.Writer) error) error {
	crc := crc32.NewIEEE()
	cw := io.MultiWriter(w, crc) // everything after the magic is checksummed
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:4], Version)
	binary.LittleEndian.PutUint64(hdr[4:12], epoch)
	if _, err := io.WriteString(w, snapMagic); err != nil {
		return fmt.Errorf("persist: snapshot header: %w", err)
	}
	if _, err := cw.Write(hdr[:]); err != nil {
		return fmt.Errorf("persist: snapshot header: %w", err)
	}
	if err := body(cw); err != nil {
		return fmt.Errorf("persist: snapshot body: %w", err)
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc.Sum32())
	if _, err := w.Write(sum[:]); err != nil {
		return fmt.Errorf("persist: snapshot checksum: %w", err)
	}
	return nil
}

// DecodeSnapshot parses one DSIMSNP1 container from memory, verifying
// magic, version and checksum before decoding the store body. It is
// ReadSnapshot without the file I/O — the entry point for a replica
// decoding a bootstrap snapshot and for a router decoding an exported
// predicate slice, both fetched over the network.
func DecodeSnapshot(buf []byte) (*storage.Store, uint64, error) {
	const minLen = len(snapMagic) + 12 + 4
	if len(buf) < minLen {
		return nil, 0, fmt.Errorf("persist: snapshot truncated (%d bytes)", len(buf))
	}
	if string(buf[:len(snapMagic)]) != snapMagic {
		return nil, 0, fmt.Errorf("persist: not a dualsim snapshot (bad magic)")
	}
	body := buf[len(snapMagic) : len(buf)-4]
	want := binary.LittleEndian.Uint32(buf[len(buf)-4:])
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, 0, fmt.Errorf("persist: snapshot checksum mismatch (corrupt or torn write)")
	}
	version := binary.LittleEndian.Uint32(body[0:4])
	if version != Version {
		return nil, 0, fmt.Errorf("persist: snapshot has unsupported format version %d (reader supports %d)", version, Version)
	}
	epoch := binary.LittleEndian.Uint64(body[4:12])
	st, err := storage.DecodeSnapshot(body[12:])
	if err != nil {
		return nil, 0, err
	}
	return st, epoch, nil
}

// WriteSnapshot atomically writes the store as the checkpoint of the
// given epoch and returns the file size. The write goes to a temp file
// that is fsync'd, renamed into place, and made durable with a
// directory fsync — a crash leaves either the old state or the new one,
// never a half-written snapshot under the final name.
func WriteSnapshot(dir string, st *storage.Store, epoch uint64) (int64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("persist: %w", err)
	}
	final := filepath.Join(dir, snapName(epoch))
	tmp := final + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return 0, fmt.Errorf("persist: %w", err)
	}
	defer os.Remove(tmp) // no-op after the rename

	if err := EncodeSnapshotTo(f, st, epoch); err != nil {
		return 0, errors.Join(err, f.Close())
	}
	if err := f.Sync(); err != nil {
		return 0, errors.Join(fmt.Errorf("persist: snapshot fsync: %w", err), f.Close())
	}
	info, err := f.Stat()
	if err != nil {
		return 0, errors.Join(fmt.Errorf("persist: %w", err), f.Close())
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("persist: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return 0, fmt.Errorf("persist: snapshot rename: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return 0, err
	}
	return info.Size(), nil
}

// ReadSnapshot loads one snapshot file, verifying magic, version and
// checksum before decoding the store body.
func ReadSnapshot(path string) (*storage.Store, uint64, int64, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("persist: %w", err)
	}
	st, epoch, err := DecodeSnapshot(buf)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("%w (%s)", err, path)
	}
	return st, epoch, int64(len(buf)), nil
}

// ReadLatestSnapshot loads the snapshot with the highest epoch in dir.
// Returns ErrNoState when the directory holds none.
func ReadLatestSnapshot(dir string) (*storage.Store, uint64, int64, error) {
	names, _, err := snapshotFiles(dir)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("persist: %w", err)
	}
	if len(names) == 0 {
		return nil, 0, 0, fmt.Errorf("%w: %s", ErrNoState, dir)
	}
	return ReadSnapshot(names[len(names)-1])
}

// pruneSnapshots removes snapshot files older than keepEpoch.
// Best-effort: a leftover old snapshot wastes disk, nothing else.
func pruneSnapshots(dir string, keepEpoch uint64) {
	names, epochs, err := snapshotFiles(dir)
	if err != nil {
		return
	}
	for i, name := range names {
		if epochs[i] < keepEpoch {
			os.Remove(name)
		}
	}
}

// syncDir fsyncs a directory so a rename within it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if err := d.Sync(); err != nil {
		return errors.Join(fmt.Errorf("persist: dir fsync: %w", err), d.Close())
	}
	if err := d.Close(); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	return nil
}
