package persist

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"dualsim/internal/rdf"
	"dualsim/internal/storage"
)

func testStore(t testing.TB) *storage.Store {
	t.Helper()
	ts := []rdf.Triple{
		rdf.T("a", "p", "b"),
		rdf.T("a", "p", "c"),
		rdf.T("b", "q", "c"),
		rdf.TL("c", "name", "see \"sea\"\nside"),
	}
	st, err := storage.FromTriples(ts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func sameTriples(t *testing.T, a, b *storage.Store) {
	t.Helper()
	ta, tb := a.Triples(), b.Triples()
	if len(ta) != len(tb) {
		t.Fatalf("triple count: %d vs %d", len(ta), len(tb))
	}
	seen := make(map[string]bool, len(ta))
	for _, tr := range ta {
		seen[tr.String()] = true
	}
	for _, tr := range tb {
		if !seen[tr.String()] {
			t.Fatalf("triple %s missing from roundtrip", tr)
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := testStore(t)
	n, err := WriteSnapshot(dir, st, 7)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatalf("snapshot size %d", n)
	}
	if !HasState(dir) {
		t.Fatal("HasState = false after WriteSnapshot")
	}
	got, epoch, size, err := ReadLatestSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 7 || size != n {
		t.Fatalf("epoch %d size %d, want 7 %d", epoch, size, n)
	}
	sameTriples(t, st, got)
	// Index integrity of the decoded store: lookups must work.
	s, _ := got.TermID(rdf.NewIRI("a"))
	p, _ := got.PredIDOf("p")
	o, _ := got.TermID(rdf.NewIRI("b"))
	if !got.HasTriple(s, p, o) {
		t.Fatal("decoded store lost (a, p, b)")
	}
	if got.DistinctSubjects(p) != st.DistinctSubjects(p) {
		t.Fatal("distinct-subject statistics drifted")
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	st := testStore(t)
	if _, err := WriteSnapshot(dir, st, 1); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapName(1))
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle of the body: the CRC must catch it.
	buf[len(buf)/2] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ReadSnapshot(path); err == nil {
		t.Fatal("corrupt snapshot decoded without error")
	}
	// Wrong magic is "not our file", not a checksum problem.
	copy(buf, "NOTASNAP")
	os.WriteFile(path, buf, 0o644)
	if _, _, _, err := ReadSnapshot(path); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestSnapshotRejectsUnknownVersion(t *testing.T) {
	dir := t.TempDir()
	if _, err := WriteSnapshot(dir, testStore(t), 1); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapName(1))
	buf, _ := os.ReadFile(path)
	buf[len(snapMagic)] = 99 // version field, little-endian low byte
	// Recompute nothing: version is inside the CRC, so also fix the sum —
	// the version check must fire even on a "valid" file of the future.
	body := buf[len(snapMagic) : len(buf)-4]
	sum := crc32Checksum(body)
	buf[len(buf)-4] = byte(sum)
	buf[len(buf)-3] = byte(sum >> 8)
	buf[len(buf)-2] = byte(sum >> 16)
	buf[len(buf)-1] = byte(sum >> 24)
	os.WriteFile(path, buf, 0o644)
	_, _, _, err := ReadSnapshot(path)
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("version")) {
		t.Fatalf("future version accepted: %v", err)
	}
}

func TestLogAppendRecover(t *testing.T) {
	dir := t.TempDir()
	st := testStore(t)
	lg, err := Init(dir, st, 0)
	if err != nil {
		t.Fatal(err)
	}
	adds := []rdf.Triple{rdf.T("x", "p", "y")}
	dels := []rdf.Triple{rdf.T("a", "p", "b")}
	as, err := lg.AppendApply(1, adds, dels)
	if err != nil {
		t.Fatal(err)
	}
	if as.Bytes <= 0 {
		t.Fatalf("append bytes %d", as.Bytes)
	}
	if _, err := lg.AppendCompact(2); err != nil {
		t.Fatal(err)
	}
	if _, err := lg.AppendApply(3, adds, nil); err != nil {
		t.Fatal(err)
	}
	if got := lg.Stats().WALRecords; got != 3 {
		t.Fatalf("WAL records %d, want 3", got)
	}
	lg.Close()

	lg2, rec, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer lg2.Close()
	if rec.SnapshotEpoch != 0 || rec.TornTail {
		t.Fatalf("recovered: %+v", rec)
	}
	if len(rec.Tail) != 3 {
		t.Fatalf("tail has %d records, want 3", len(rec.Tail))
	}
	if rec.Tail[0].Kind != RecordApply || rec.Tail[0].Epoch != 1 ||
		len(rec.Tail[0].Adds) != 1 || len(rec.Tail[0].Dels) != 1 ||
		rec.Tail[0].Adds[0].String() != adds[0].String() {
		t.Fatalf("tail[0] = %+v", rec.Tail[0])
	}
	if rec.Tail[1].Kind != RecordCompact || rec.Tail[1].Epoch != 2 {
		t.Fatalf("tail[1] = %+v", rec.Tail[1])
	}
	sameTriples(t, st, rec.Store)
}

func TestLogTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	lg, err := Init(dir, testStore(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, err := lg.AppendApply(uint64(i), []rdf.Triple{rdf.T(fmt.Sprintf("s%d", i), "p", "o")}, nil); err != nil {
			t.Fatal(err)
		}
	}
	lg.Close()

	// Tear the tail: chop bytes off the last record, as a crash
	// mid-append would.
	walPath := filepath.Join(dir, walName)
	buf, _ := os.ReadFile(walPath)
	os.WriteFile(walPath, buf[:len(buf)-3], 0o644)

	lg2, rec, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.TornTail || len(rec.Tail) != 2 {
		t.Fatalf("torn recovery: torn=%v tail=%d, want true 2", rec.TornTail, len(rec.Tail))
	}
	// The truncated log must accept new appends cleanly at the repaired
	// offset, and a subsequent recovery sees exactly records 1, 2, 3'.
	if _, err := lg2.AppendApply(3, []rdf.Triple{rdf.T("s3b", "p", "o")}, nil); err != nil {
		t.Fatal(err)
	}
	lg2.Close()
	_, rec2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.TornTail || len(rec2.Tail) != 3 || rec2.Tail[2].Adds[0].S.Value != "s3b" {
		t.Fatalf("post-repair recovery: %+v", rec2)
	}
}

func TestCheckpointTruncatesWALAndPrunesSnapshots(t *testing.T) {
	dir := t.TempDir()
	st := testStore(t)
	lg, err := Init(dir, st, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	for i := 1; i <= 4; i++ {
		if _, err := lg.AppendApply(uint64(i), []rdf.Triple{rdf.T(fmt.Sprintf("s%d", i), "p", "o")}, nil); err != nil {
			t.Fatal(err)
		}
	}
	before := lg.Stats()
	cs, err := lg.Checkpoint(st, 4)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Epoch != 4 || cs.WALReclaimed != before.WALBytes || cs.SnapshotBytes <= 0 {
		t.Fatalf("checkpoint stats: %+v (before: %+v)", cs, before)
	}
	after := lg.Stats()
	if after.WALBytes != 0 || after.WALRecords != 0 || after.LastCheckpointEpoch != 4 || after.Checkpoints != 2 {
		t.Fatalf("post-checkpoint stats: %+v", after)
	}
	// Epoch-0 snapshot pruned, epoch-4 kept.
	names, epochs, err := snapshotFiles(dir)
	if err != nil || len(names) != 1 || epochs[0] != 4 {
		t.Fatalf("snapshots after checkpoint: %v %v %v", names, epochs, err)
	}
	// Recovery from the checkpoint has an empty tail.
	lg.Close()
	lg2, rec, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer lg2.Close()
	if rec.SnapshotEpoch != 4 || len(rec.Tail) != 0 {
		t.Fatalf("recovered after checkpoint: epoch %d, %d tail records", rec.SnapshotEpoch, len(rec.Tail))
	}
	// And the truncated WAL accepts appends for the next epochs.
	if _, err := lg2.AppendApply(5, []rdf.Triple{rdf.T("s5", "p", "o")}, nil); err != nil {
		t.Fatal(err)
	}
	tail, _, err := lg2.TailSince(4)
	if err != nil || len(tail) != 1 || tail[0].Epoch != 5 {
		t.Fatalf("TailSince: %v %v", tail, err)
	}
}

func TestInitRefusesExistingState(t *testing.T) {
	dir := t.TempDir()
	if _, err := Init(dir, testStore(t), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := Init(dir, testStore(t), 0); err == nil {
		t.Fatal("Init over an existing durable dir succeeded")
	}
}

func TestOpenEmptyDirIsErrNoState(t *testing.T) {
	_, _, err := Open(t.TempDir())
	if err == nil {
		t.Fatal("Open on an empty dir succeeded")
	}
}

func crc32Checksum(b []byte) uint32 {
	return crc32.ChecksumIEEE(b)
}

func BenchmarkSnapshotEncode(b *testing.B) {
	st := benchStore(b)
	var buf bytes.Buffer
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := st.EncodeSnapshot(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

func BenchmarkSnapshotDecode(b *testing.B) {
	st := benchStore(b)
	var buf bytes.Buffer
	if err := st.EncodeSnapshot(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := storage.DecodeSnapshot(buf.Bytes()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWALAppend(b *testing.B) {
	lg, err := Init(b.TempDir(), benchStore(b), 0)
	if err != nil {
		b.Fatal(err)
	}
	defer lg.Close()
	adds := []rdf.Triple{rdf.T("s", "p", "o")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lg.AppendApply(uint64(i+1), adds, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func benchStore(b *testing.B) *storage.Store {
	b.Helper()
	var ts []rdf.Triple
	for i := 0; i < 2000; i++ {
		ts = append(ts, rdf.T(fmt.Sprintf("s%d", i%500), fmt.Sprintf("p%d", i%7), fmt.Sprintf("o%d", i%300)))
	}
	st, err := storage.FromTriples(ts)
	if err != nil {
		b.Fatal(err)
	}
	return st
}

func TestLockRefusesSecondProcessHandle(t *testing.T) {
	dir := t.TempDir()
	lg, err := Init(dir, testStore(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	// While one Log is live, neither Open nor Init may attach to the
	// same dir (a second daemon would corrupt the shared WAL).
	if _, _, err := Open(dir); err == nil {
		t.Fatal("Open attached to a locked data dir")
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	lg2, _, err := Open(dir)
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	lg2.Close()
}

func TestAppendRejectsOversizedRecord(t *testing.T) {
	dir := t.TempDir()
	lg, err := Init(dir, testStore(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	// One triple whose object alone exceeds the record bound: the append
	// must refuse before acknowledging (recovery would otherwise treat
	// the acked frame as a torn tail and silently drop it).
	huge := []rdf.Triple{{S: rdf.NewIRI("s"), P: "p", O: rdf.NewLiteral(string(make([]byte, maxRecordBytes+1)))}}
	if _, err := lg.AppendApply(1, huge, nil); err == nil {
		t.Fatal("oversized WAL record accepted")
	}
	// The refused append must not have advanced the log.
	if got := lg.Stats().WALRecords; got != 0 {
		t.Fatalf("WAL records after refused append: %d", got)
	}
	if _, err := lg.AppendApply(1, []rdf.Triple{rdf.T("s", "p", "o")}, nil); err != nil {
		t.Fatalf("normal append after refusal: %v", err)
	}
}
