package persist

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"dualsim/internal/rdf"
)

// TestTailSinceReturnsRecordsBeyondEpoch exercises the primary side of
// replication: records appended after the requested epoch come back in
// replay order, records at or below it are filtered out.
func TestTailSinceReturnsRecordsBeyondEpoch(t *testing.T) {
	dir := t.TempDir()
	lg, err := Init(dir, testStore(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	for i := 1; i <= 4; i++ {
		if _, err := lg.AppendApply(uint64(i), []rdf.Triple{rdf.T(fmt.Sprintf("s%d", i), "p", "o")}, nil); err != nil {
			t.Fatal(err)
		}
	}
	recs, ckpt, err := lg.TailSince(0)
	if err != nil {
		t.Fatal(err)
	}
	if ckpt != 0 {
		t.Fatalf("checkpoint epoch = %d, want 0", ckpt)
	}
	if len(recs) != 4 {
		t.Fatalf("TailSince(0) returned %d records, want 4", len(recs))
	}
	for i, r := range recs {
		if r.Epoch != uint64(i+1) {
			t.Fatalf("TailSince(0) record %d has epoch %d, want %d", i, r.Epoch, i+1)
		}
	}
	recs, _, err = lg.TailSince(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Epoch != 3 || recs[1].Epoch != 4 {
		t.Fatalf("TailSince(2) = %v records starting at %d, want [3 4]", len(recs), recs[0].Epoch)
	}
}

// TestTailSinceEpochGapAfterCheckpoint is the epoch-gap scenario of the
// replication protocol: a checkpoint truncates the WAL, so a consumer
// that last saw an epoch below the checkpoint can no longer catch up
// from the log — TailSince must answer ErrEpochGap (and the checkpoint
// epoch to re-bootstrap from), never a silently-holey tail.
func TestTailSinceEpochGapAfterCheckpoint(t *testing.T) {
	dir := t.TempDir()
	st := testStore(t)
	lg, err := Init(dir, st, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	for i := 1; i <= 3; i++ {
		if _, err := lg.AppendApply(uint64(i), []rdf.Triple{rdf.T(fmt.Sprintf("s%d", i), "p", "o")}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := lg.Checkpoint(st, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := lg.AppendApply(4, []rdf.Triple{rdf.T("s4", "p", "o")}, nil); err != nil {
		t.Fatal(err)
	}

	// A consumer at epoch 1 missed the truncation: epochs 2 and 3 are gone.
	_, ckpt, err := lg.TailSince(1)
	if !errors.Is(err, ErrEpochGap) {
		t.Fatalf("TailSince(1) after checkpoint(3) = %v, want ErrEpochGap", err)
	}
	if ckpt != 3 {
		t.Fatalf("gap reported checkpoint epoch %d, want 3", ckpt)
	}

	// A consumer exactly at the checkpoint epoch needs nothing but the
	// surviving tail.
	recs, _, err := lg.TailSince(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Epoch != 4 {
		t.Fatalf("TailSince(3) = %+v, want the single epoch-4 record", recs)
	}
}

// TestEncodeSnapshotToMatchesFileFormat pins the bootstrap stream to the
// on-disk container: the bytes EncodeSnapshotTo produces decode through
// DecodeSnapshot (the replica path) into the same store and epoch.
func TestEncodeSnapshotToMatchesFileFormat(t *testing.T) {
	st := testStore(t)
	var buf bytes.Buffer
	if err := EncodeSnapshotTo(&buf, st, 7); err != nil {
		t.Fatal(err)
	}
	got, epoch, err := DecodeSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 7 {
		t.Fatalf("epoch = %d, want 7", epoch)
	}
	if got.NumTriples() != st.NumTriples() || got.NumNodes() != st.NumNodes() || got.NumPreds() != st.NumPreds() {
		t.Fatalf("decoded shape (%d,%d,%d) != original (%d,%d,%d)",
			got.NumTriples(), got.NumNodes(), got.NumPreds(),
			st.NumTriples(), st.NumNodes(), st.NumPreds())
	}
	// A flipped byte anywhere in the CRC-covered region must be caught.
	raw := buf.Bytes()
	raw[len(raw)/2] ^= 0xff
	if _, _, err := DecodeSnapshot(raw); err == nil {
		t.Fatal("corrupted container decoded without error")
	}
}
