package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"dualsim/internal/rdf"
)

// RecordKind tags one WAL record.
type RecordKind uint8

const (
	// RecordApply is one delta batch: dels before adds, epoch++.
	RecordApply RecordKind = 1
	// RecordCompact is an on-demand overlay compaction: epoch++ with no
	// triple payload (the rebuild is deterministic from the state the
	// preceding records produce).
	RecordCompact RecordKind = 2
)

// Record is one decoded WAL entry. Epoch is the post-operation epoch:
// replaying the record onto the state of epoch Epoch-1 must yield
// exactly epoch Epoch — the invariant the session layer checks while
// replaying a tail.
type Record struct {
	Kind  RecordKind
	Epoch uint64
	Adds  []rdf.Triple
	Dels  []rdf.Triple
}

const (
	walHeaderLen   = 12 // 8-byte magic + uint32 version
	walFrameLen    = 8  // uint32 payload length + uint32 CRC
	maxRecordBytes = 256 << 20
)

// ErrEpochGap reports that a requested WAL range no longer exists: a
// checkpoint truncated records the consumer has not seen, so replaying
// the surviving tail would skip epochs. The only sound recovery is to
// re-bootstrap from a snapshot at or beyond the gap.
var ErrEpochGap = errors.New("persist: WAL records for the requested epochs were checkpointed away")

// VerifyTail checks that recs form the contiguous epoch sequence
// from+1, from+2, …: the invariant WAL replay and replica catch-up rely
// on. Apply records are only ever logged for non-empty deltas (empty
// deltas are no-ops that do not advance the epoch), so a hole or a
// jump always means records are missing or reordered — applying across
// it would silently diverge from the primary. A skip ahead is reported
// as ErrEpochGap; any other disorder as a plain error.
func VerifyTail(from uint64, recs []Record) error {
	e := from
	for i, r := range recs {
		if r.Epoch == e+1 {
			e = r.Epoch
			continue
		}
		if r.Epoch > e+1 {
			return fmt.Errorf("%w: record %d jumps from epoch %d to %d", ErrEpochGap, i, e, r.Epoch)
		}
		return fmt.Errorf("persist: WAL tail disordered: record %d has epoch %d at replay position %d", i, r.Epoch, e+1)
	}
	return nil
}

// encodeRecord appends the payload of r to buf.
func encodeRecord(buf []byte, r Record) []byte {
	buf = append(buf, byte(r.Kind))
	buf = binary.LittleEndian.AppendUint64(buf, r.Epoch)
	if r.Kind == RecordApply {
		buf = appendTriples(buf, r.Adds)
		buf = appendTriples(buf, r.Dels)
	}
	return buf
}

func appendTriples(buf []byte, ts []rdf.Triple) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ts)))
	for _, t := range ts {
		buf = appendString(buf, t.S.Value)
		buf = appendString(buf, t.P)
		buf = append(buf, byte(t.O.Kind))
		buf = appendString(buf, t.O.Value)
	}
	return buf
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// decodeRecord parses one payload. The frame CRC already matched, so a
// failure here is a format bug or version skew, not bit rot.
func decodeRecord(payload []byte) (Record, error) {
	if len(payload) < 9 {
		return Record{}, fmt.Errorf("persist: WAL payload too short (%d bytes)", len(payload))
	}
	r := Record{Kind: RecordKind(payload[0]), Epoch: binary.LittleEndian.Uint64(payload[1:9])}
	rest := payload[9:]
	switch r.Kind {
	case RecordCompact:
		if len(rest) != 0 {
			return Record{}, fmt.Errorf("persist: compact record carries %d payload bytes", len(rest))
		}
		return r, nil
	case RecordApply:
		var err error
		if r.Adds, rest, err = decodeTriples(rest); err != nil {
			return Record{}, err
		}
		if r.Dels, rest, err = decodeTriples(rest); err != nil {
			return Record{}, err
		}
		if len(rest) != 0 {
			return Record{}, fmt.Errorf("persist: apply record has %d trailing bytes", len(rest))
		}
		return r, nil
	default:
		return Record{}, fmt.Errorf("persist: unknown WAL record kind %d", r.Kind)
	}
}

func decodeTriples(buf []byte) ([]rdf.Triple, []byte, error) {
	n, buf, err := decodeUvarint(buf)
	if err != nil {
		return nil, nil, err
	}
	// Every encoded triple occupies at least 4 bytes (three length
	// prefixes plus the object kind), so a count beyond remaining/4 is
	// corrupt — reject it before it sizes a giant allocation.
	if n > uint64(len(buf))/4 {
		return nil, nil, fmt.Errorf("persist: triple count %d exceeds the %d remaining payload bytes", n, len(buf))
	}
	ts := make([]rdf.Triple, 0, n)
	for i := uint64(0); i < n; i++ {
		var t rdf.Triple
		var s string
		if s, buf, err = decodeString(buf); err != nil {
			return nil, nil, err
		}
		t.S = rdf.NewIRI(s)
		if t.P, buf, err = decodeString(buf); err != nil {
			return nil, nil, err
		}
		if len(buf) < 1 {
			return nil, nil, fmt.Errorf("persist: WAL triple truncated at object kind")
		}
		kind := rdf.Kind(buf[0])
		buf = buf[1:]
		var o string
		if o, buf, err = decodeString(buf); err != nil {
			return nil, nil, err
		}
		if kind == rdf.Literal {
			t.O = rdf.NewLiteral(o)
		} else {
			t.O = rdf.NewIRI(o)
		}
		ts = append(ts, t)
	}
	return ts, buf, nil
}

func decodeUvarint(buf []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, nil, fmt.Errorf("persist: WAL varint truncated")
	}
	return v, buf[n:], nil
}

func decodeString(buf []byte) (string, []byte, error) {
	n, buf, err := decodeUvarint(buf)
	if err != nil {
		return "", nil, err
	}
	if uint64(len(buf)) < n {
		return "", nil, fmt.Errorf("persist: WAL string truncated (want %d bytes, have %d)", n, len(buf))
	}
	return string(buf[:n]), buf[n:], nil
}

// scanWAL parses the log at path. It returns every intact record plus
// the byte offset of the end of the last intact record — the point a
// recovery truncates to when the tail is torn (a partial frame or a CRC
// mismatch from a crash mid-append). A missing file scans as empty. A
// corrupt header (wrong magic or unknown version) is a hard error: that
// is not a torn append but the wrong file.
func scanWAL(path string) (recs []Record, goodLen int64, torn bool, err error) {
	buf, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, 0, false, nil
	}
	if err != nil {
		return nil, 0, false, fmt.Errorf("persist: %w", err)
	}
	if len(buf) < walHeaderLen {
		// Crash while creating the file: nothing was ever logged.
		return nil, 0, len(buf) > 0, nil
	}
	if string(buf[:len(walMagic)]) != walMagic {
		return nil, 0, false, fmt.Errorf("persist: %s is not a dualsim WAL (bad magic)", path)
	}
	if v := binary.LittleEndian.Uint32(buf[len(walMagic):walHeaderLen]); v != Version {
		return nil, 0, false, fmt.Errorf("persist: WAL %s has unsupported format version %d (reader supports %d)", path, v, Version)
	}
	off := walHeaderLen
	for {
		if off+walFrameLen > len(buf) {
			torn = off != len(buf)
			break
		}
		n := binary.LittleEndian.Uint32(buf[off : off+4])
		sum := binary.LittleEndian.Uint32(buf[off+4 : off+8])
		if n > maxRecordBytes || off+walFrameLen+int(n) > len(buf) {
			torn = true
			break
		}
		payload := buf[off+walFrameLen : off+walFrameLen+int(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			torn = true
			break
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return nil, 0, false, err
		}
		recs = append(recs, rec)
		off += walFrameLen + int(n)
	}
	return recs, int64(off), torn, nil
}

// createWAL writes a fresh log containing only the header.
func createWAL(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	var hdr [walHeaderLen]byte
	copy(hdr[:], walMagic)
	binary.LittleEndian.PutUint32(hdr[len(walMagic):], Version)
	if _, err := f.Write(hdr[:]); err != nil {
		return nil, errors.Join(fmt.Errorf("persist: WAL header: %w", err), f.Close())
	}
	if err := f.Sync(); err != nil {
		return nil, errors.Join(fmt.Errorf("persist: WAL fsync: %w", err), f.Close())
	}
	return f, nil
}

// openWALForAppend opens (creating if needed) the log and positions the
// write offset at goodLen, truncating a torn tail away first.
func openWALForAppend(path string, goodLen int64) (*os.File, int64, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if os.IsNotExist(err) || goodLen < walHeaderLen {
		if f != nil {
			_ = f.Close() // recreated from scratch below; nothing durable yet
		}
		nf, cerr := createWAL(path)
		return nf, walHeaderLen, cerr
	}
	if err != nil {
		return nil, 0, fmt.Errorf("persist: %w", err)
	}
	if err := f.Truncate(goodLen); err != nil {
		return nil, 0, errors.Join(fmt.Errorf("persist: truncating torn WAL tail: %w", err), f.Close())
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		return nil, 0, errors.Join(fmt.Errorf("persist: %w", err), f.Close())
	}
	return f, goodLen, nil
}
