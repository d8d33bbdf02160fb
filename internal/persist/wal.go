package persist

import (
	"bytes"
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
	// RecordCompact is an on-demand compaction: epoch++ with no
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

// decodeRecord parses one payload.
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
		if kind != rdf.IRI && kind != rdf.Literal {
			return nil, nil, fmt.Errorf("persist: WAL triple %d has unknown object kind %d", i, kind)
		}
		t.O.Kind = kind
		if t.O.Value, buf, err = decodeString(buf[1:]); err != nil {
			return nil, nil, err
		}
		ts = append(ts, t)
	}
	return ts, buf, nil
}

// decodeUvarint reads one varint in the minimal spelling encodeRecord
// writes: a longer one (a zero last byte) would decode to a record that
// re-encodes to other bytes.
func decodeUvarint(buf []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, nil, fmt.Errorf("persist: WAL varint truncated")
	}
	if n > 1 && buf[n-1] == 0 {
		return 0, nil, fmt.Errorf("persist: WAL varint not minimally encoded")
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

// errTornWAL marks input that stops short of a whole record: a partial
// frame or a CRC mismatch.
var errTornWAL = errors.New("persist: torn WAL")

// appendFrame appends r to buf as one WAL frame: payload length, CRC
// and payload — the one frame encoder, shared by Log's appends and
// EncodeWAL.
func appendFrame(buf []byte, r Record) []byte {
	start := len(buf)
	buf = encodeRecord(append(buf, make([]byte, walFrameLen)...), r)
	payload := buf[start+walFrameLen:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
	return buf
}

// EncodeWAL returns a WAL file holding exactly recs: the bytes a log
// whose records are recs holds on disk. GET /v1/wal answers with it.
func EncodeWAL(recs []Record) []byte {
	buf := binary.LittleEndian.AppendUint32([]byte(walMagic), Version)
	for _, r := range recs {
		buf = appendFrame(buf, r)
	}
	return buf
}

// ReadWAL reads a WAL file from r — the one frame reader, shared by
// recovery and replicas. It returns every intact record and goodLen,
// the byte length of the header and their frames. Input that stops
// short of a whole header or frame, or a frame failing its CRC, is an
// error wrapping errTornWAL, returned with the records before it:
// recovery truncates there, a replica refuses the tail. A wrong magic
// or version, or a payload that passes its CRC but does not decode, is
// a different file or format, and no records come back.
func ReadWAL(r io.Reader) (recs []Record, goodLen int64, err error) {
	// short sorts a read that came up short: running out of input is a
	// torn WAL, anything else an I/O error.
	short := func(err error, what string) ([]Record, int64, error) {
		if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
			return nil, 0, fmt.Errorf("persist: reading WAL: %w", err)
		}
		return recs, goodLen, fmt.Errorf("%w at byte %d: %s", errTornWAL, goodLen, what)
	}
	// One header buffer, one payload buffer and one limited reader serve
	// every frame: a tail of many small records allocates per record
	// only what decodeRecord keeps.
	hdr := make([]byte, walHeaderLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return short(err, "no header")
	}
	if string(hdr[:len(walMagic)]) != walMagic {
		return nil, 0, errors.New("persist: not a dualsim WAL (bad magic)")
	}
	if v := binary.LittleEndian.Uint32(hdr[len(walMagic):]); v != Version {
		return nil, 0, fmt.Errorf("persist: WAL has unsupported format version %d (reader supports %d)", v, Version)
	}
	goodLen = walHeaderLen
	var payload bytes.Buffer
	body := &io.LimitedReader{R: r}
	for frame := hdr[:walFrameLen]; ; {
		if _, err := io.ReadFull(r, frame); err == io.EOF {
			return recs, goodLen, nil
		} else if err != nil {
			return short(err, "partial frame")
		}
		n := int64(binary.LittleEndian.Uint32(frame[0:4]))
		if n > maxRecordBytes {
			return short(nil, "frame length beyond the record bound")
		}
		// Grow with the bytes read, not the claimed length: a corrupt
		// length must not size a large allocation.
		payload.Reset()
		body.N = n
		if m, err := payload.ReadFrom(body); err != nil || m < n {
			return short(err, "partial frame")
		}
		if crc32.ChecksumIEEE(payload.Bytes()) != binary.LittleEndian.Uint32(frame[4:8]) {
			return short(nil, "CRC mismatch")
		}
		// The CRC matched, so a decode failure is a format bug or
		// version skew, not bit rot.
		rec, err := decodeRecord(payload.Bytes())
		if err != nil {
			return nil, 0, err
		}
		recs = append(recs, rec)
		goodLen += walFrameLen + n
	}
}

// scanWAL reads the log at path. torn reports bytes past goodLen — a
// partial or CRC-failing frame from a crash mid-append — which a
// recovery truncates away. A missing file scans as empty.
func scanWAL(path string) (recs []Record, goodLen int64, torn bool, err error) {
	buf, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, 0, false, nil
	}
	if err != nil {
		return nil, 0, false, fmt.Errorf("persist: %w", err)
	}
	recs, goodLen, err = ReadWAL(bytes.NewReader(buf))
	if err != nil && !errors.Is(err, errTornWAL) {
		return nil, 0, false, fmt.Errorf("%w: %s", err, path)
	}
	return recs, goodLen, goodLen < int64(len(buf)), nil
}

// createWAL writes a fresh log: a WAL file of no records, the header.
func createWAL(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	if _, err := f.Write(EncodeWAL(nil)); err != nil {
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
