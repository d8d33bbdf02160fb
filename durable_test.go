package dualsim_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"dualsim"
	"dualsim/internal/persist"
	"dualsim/internal/queries"
)

const durableQueryX1 = `SELECT * WHERE { ?d <directed> ?m . ?d <worked_with> ?c . }`

func durableDelta(i int) dualsim.Delta {
	return dualsim.Delta{Adds: []dualsim.Triple{
		dualsim.T(fmt.Sprintf("dur:s%d", i), "dur:edge", fmt.Sprintf("dur:o%d", i)),
	}}
}

// TestDurableSessionWarmRestart is the round-trip the tentpole exists
// for: applies on a durable session survive Close, and OpenDir resumes
// at the same epoch with the same query answers — without the original
// store.
func TestDurableSessionWarmRestart(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	st, err := dualsim.FromTriples(queries.Fig1aTriples())
	if err != nil {
		t.Fatal(err)
	}
	db, err := dualsim.Open(st, dualsim.WithDataDir(dir), dualsim.WithPlanCache(4))
	if err != nil {
		t.Fatal(err)
	}
	if !db.Durable() {
		t.Fatal("session not durable")
	}
	res, _, err := db.Query(ctx, durableQueryX1)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := res.Len()

	for i := 0; i < 5; i++ {
		as, err := db.Apply(ctx, durableDelta(i))
		if err != nil {
			t.Fatal(err)
		}
		if as.WALBytes <= 0 {
			t.Fatalf("apply %d: WALBytes = %d, want > 0", i, as.WALBytes)
		}
	}
	// One delta that changes the X1 answer.
	if _, err := db.Apply(ctx, dualsim.Delta{Adds: []dualsim.Triple{
		dualsim.T("J._McTiernan", "directed", "Die_Hard"),
		dualsim.T("J._McTiernan", "worked_with", "S._de_Souza"),
	}}); err != nil {
		t.Fatal(err)
	}
	res, _, err = db.Query(ctx, durableQueryX1)
	if err != nil {
		t.Fatal(err)
	}
	wantRows = res.Len()
	wantEpoch := db.Epoch()
	ps := db.PersistStats()
	if !ps.Durable || ps.WALRecords != 6 || ps.WALBytes <= 0 {
		t.Fatalf("persist stats: %+v", ps)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Warm restart: no original store in sight.
	db2, err := dualsim.OpenDir(dir, dualsim.WithPlanCache(4))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Epoch() != wantEpoch {
		t.Fatalf("epoch after restart: %d, want %d", db2.Epoch(), wantEpoch)
	}
	if ps := db2.PersistStats(); ps.WALRecords != 6 {
		t.Fatalf("WAL after recovery holds %d records, want the 6 it replayed", ps.WALRecords)
	}
	res, stats, err := db2.Query(ctx, durableQueryX1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != wantRows || stats.Epoch != wantEpoch {
		t.Fatalf("restarted answers: %d rows at epoch %d, want %d at %d",
			res.Len(), stats.Epoch, wantRows, wantEpoch)
	}
	// The restarted session keeps the same WAL going.
	as, err := db2.Apply(ctx, durableDelta(99))
	if err != nil {
		t.Fatal(err)
	}
	if as.Epoch != wantEpoch+1 {
		t.Fatalf("post-restart apply epoch %d, want %d", as.Epoch, wantEpoch+1)
	}
}

// TestReplayEpochDiscipline: Replay, record by record and in a batch —
// duplicates skipped, gaps refused with persist.ErrEpochGap, unknown
// kinds refused, in-order records applied onto their stamped epochs,
// and a failure stops the batch after the last record applied.
func TestReplayEpochDiscipline(t *testing.T) {
	db := open(t, fig1a(t))
	ctx := context.Background()
	add := dualsim.T("N._Roeg", "directed", "Walkabout")
	replay := func(recs ...persist.Record) error { return db.Replay(ctx, recs) }

	if err := replay(persist.Record{Kind: persist.RecordApply, Epoch: 0, Adds: []dualsim.Triple{add}}); err != nil || db.Epoch() != 0 {
		t.Fatalf("duplicate record: %v, epoch %d", err, db.Epoch())
	}
	if err := replay(persist.Record{Kind: persist.RecordApply, Epoch: 2, Adds: []dualsim.Triple{add}}); !errors.Is(err, persist.ErrEpochGap) || db.Epoch() != 0 {
		t.Fatalf("gap record: %v, epoch %d; want ErrEpochGap at 0", err, db.Epoch())
	}
	if err := replay(persist.Record{Kind: persist.RecordApply, Epoch: 1, Adds: []dualsim.Triple{add}}); err != nil || db.Epoch() != 1 {
		t.Fatalf("in-order record: %v, epoch %d", err, db.Epoch())
	}
	if !slices.Contains(db.Store().Triples(), add) {
		t.Fatalf("in-order record did not add %v", add)
	}
	if err := replay(persist.Record{Kind: 9, Epoch: 2}); err == nil || db.Epoch() != 1 {
		t.Fatalf("unknown record kind: %v, epoch %d", err, db.Epoch())
	}

	err := replay(
		persist.Record{Kind: persist.RecordApply, Epoch: 1, Adds: []dualsim.Triple{add}},
		persist.Record{Kind: persist.RecordCompact, Epoch: 2},
		persist.Record{Kind: persist.RecordApply, Epoch: 4, Adds: []dualsim.Triple{add}},
	)
	if !errors.Is(err, persist.ErrEpochGap) || db.Epoch() != 2 || db.Snapshot().Compactions() != 1 {
		t.Fatalf("batch with a gap: %v at epoch %d after %d compactions; want ErrEpochGap at 2 after 1",
			err, db.Epoch(), db.Snapshot().Compactions())
	}
}

// TestDurableCheckpointSkipsReplay pins the checkpoint contract: after
// Checkpoint the WAL is empty and OpenDir boots straight from the
// snapshot at the same epoch.
func TestDurableCheckpointSkipsReplay(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	st, err := dualsim.FromTriples(queries.Fig1aTriples())
	if err != nil {
		t.Fatal(err)
	}
	db, err := dualsim.Open(st, dualsim.WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := db.Apply(ctx, durableDelta(i)); err != nil {
			t.Fatal(err)
		}
	}
	cs, err := db.Checkpoint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Epoch != 3 || cs.SnapshotBytes <= 0 || cs.WALReclaimed <= 0 {
		t.Fatalf("checkpoint stats: %+v", cs)
	}
	if ps := db.PersistStats(); ps.WALRecords != 0 || ps.LastCheckpointEpoch != 3 {
		t.Fatalf("post-checkpoint persist stats: %+v", ps)
	}
	db.Close()

	db2, err := dualsim.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Epoch() != 3 {
		t.Fatalf("epoch after checkpointed restart: %d, want 3", db2.Epoch())
	}
	if db2.Store().NumTriples() != st.NumTriples()+3 {
		t.Fatalf("triples after restart: %d, want %d", db2.Store().NumTriples(), st.NumTriples()+3)
	}
}

// TestDurableCheckpointEveryAndCompact covers the two automatic
// checkpoint triggers of a session opened with only WithDataDir: the
// 1024th WAL record since the last checkpoint and every Compact. The
// records after the last checkpoint stay in the WAL, and a restart
// replays them.
func TestDurableCheckpointEveryAndCompact(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	st, err := dualsim.FromTriples(queries.Fig1aTriples())
	if err != nil {
		t.Fatal(err)
	}
	db, err := dualsim.Open(st, dualsim.WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 1023; i++ {
		if as, err := db.Apply(ctx, durableDelta(i)); err != nil || as.Checkpointed {
			t.Fatalf("apply %d: %+v, %v", i, as, err)
		}
	}
	as, err := db.Apply(ctx, durableDelta(1023))
	if err != nil || !as.Checkpointed {
		t.Fatalf("the 1024th apply should checkpoint: %+v, %v", as, err)
	}
	if ps := db.PersistStats(); ps.WALRecords != 0 || ps.LastCheckpointEpoch != 1024 {
		t.Fatalf("persist stats after auto-checkpoint: %+v", ps)
	}
	// Compact always checkpoints on a durable session.
	cs, err := db.Compact(ctx)
	if err != nil || !cs.Checkpointed || cs.WALBytes <= 0 {
		t.Fatalf("compact: %+v, %v", cs, err)
	}
	if ps := db.PersistStats(); ps.LastCheckpointEpoch != 1025 || ps.WALRecords != 0 {
		t.Fatalf("persist stats after compact: %+v", ps)
	}
	for i := 1024; i < 1026; i++ {
		if as, err := db.Apply(ctx, durableDelta(i)); err != nil || as.Checkpointed {
			t.Fatalf("apply %d: %+v, %v", i, as, err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := dualsim.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Epoch() != 1027 || db2.Store().NumTriples() != st.NumTriples()+1026 {
		t.Fatalf("restart: epoch %d, %d triples; want 1027, %d", db2.Epoch(), db2.Store().NumTriples(), st.NumTriples()+1026)
	}
	if ps := db2.PersistStats(); ps.LastCheckpointEpoch != 1025 || ps.WALRecords != 2 {
		t.Fatalf("persist stats after restart: %+v", ps)
	}
}

// TestDurableOpenErrors pins the boot-path error contract.
func TestDurableOpenErrors(t *testing.T) {
	dir := t.TempDir()
	st, err := dualsim.FromTriples(queries.Fig1aTriples())
	if err != nil {
		t.Fatal(err)
	}
	// OpenDir on an empty dir: nothing to recover.
	if _, err := dualsim.OpenDir(dir); err == nil {
		t.Fatal("OpenDir on an empty dir succeeded")
	}
	db, err := dualsim.Open(st, dualsim.WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	// Open (cold start) over a dir that already holds a store is refused.
	if _, err := dualsim.Open(st, dualsim.WithDataDir(dir)); err == nil {
		t.Fatal("Open over an existing durable dir succeeded")
	}
	// Checkpoint on a non-durable session.
	plain, err := dualsim.Open(st)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if _, err := plain.Checkpoint(context.Background()); !errors.Is(err, dualsim.ErrNotDurable) {
		t.Fatalf("Checkpoint on non-durable session: %v", err)
	}
	if plain.Durable() {
		t.Fatal("plain session claims durability")
	}
}
