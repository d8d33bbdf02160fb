package cluster

import (
	"context"
	"errors"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"dualsim"
	"dualsim/client"
	"dualsim/internal/queries"
	"dualsim/internal/server"
	"dualsim/internal/wire"
)

// newPrimary starts a durable dualsimd over Fig. 1(a) — the only kind a
// replica can follow (WAL streaming needs a log).
func newPrimary(t *testing.T) (*dualsim.DB, *httptest.Server) {
	t.Helper()
	st, err := dualsim.FromTriples(queries.Fig1aTriples())
	if err != nil {
		t.Fatal(err)
	}
	db, err := dualsim.Open(st, dualsim.WithDataDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(db)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(func() {
		hs.Close()
		db.Close()
	})
	return db, hs
}

func applyOne(t *testing.T, db *dualsim.DB, s, p, o string) {
	t.Helper()
	if _, err := db.Apply(context.Background(), dualsim.Delta{Adds: []dualsim.Triple{dualsim.T(s, p, o)}}); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestFollowerBootstrapAndCatchUp(t *testing.T) {
	db, hs := newPrimary(t)
	applyOne(t, db, "N._Roeg", "directed", "Walkabout") // epoch 1 before the replica exists

	var swaps atomic.Int64
	f, err := Follow(hs.URL,
		WithPollWait(50*time.Millisecond),
		WithRetryWait(20*time.Millisecond),
		WithOnSwap(func(*dualsim.DB) { swaps.Add(1) }),
		WithLogf(t.Logf),
	)
	if err != nil {
		t.Fatal(err)
	}
	if f.DB() != nil {
		t.Fatal("replica has a session before bootstrap")
	}
	if err := f.Ready(); err == nil {
		t.Fatal("replica ready before bootstrap")
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- f.Run(ctx) }()

	waitFor(t, "bootstrap", func() bool { return f.DB() != nil })
	if got := f.DB().Epoch(); got != 1 {
		t.Fatalf("bootstrapped at epoch %d, want 1", got)
	}
	if got := swaps.Load(); got != 1 {
		t.Fatalf("swap hook ran %d times, want 1", got)
	}

	// Live catch-up: records applied on the primary after the bootstrap
	// must stream through the tail. (A Compact would NOT stream: on a
	// durable primary it auto-checkpoints, truncating the WAL, so
	// replicas cross it by re-bootstrapping — covered below.)
	applyOne(t, db, "N._Roeg", "awarded", "BAFTA_Awards")    // epoch 2
	applyOne(t, db, "S._Kubrick", "directed", "The_Shining") // epoch 3
	waitFor(t, "catch-up to epoch 3", func() bool { return f.DB().Epoch() == 3 })

	if err := f.Ready(); err != nil {
		t.Fatalf("caught-up replica not ready: %v", err)
	}
	s := f.Stats()
	if s.Bootstraps != 1 || s.Gaps != 0 || s.Applied < 2 {
		t.Fatalf("stats %+v: want 1 bootstrap, 0 gaps, >=2 applied", s)
	}

	// The replica's answers must match the primary's, epoch and rows.
	res, _, err := f.DB().Snapshot().Query(context.Background(), `SELECT * WHERE { ?d <directed> ?m . ?d <awarded> ?a . }`)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := db.Snapshot().Query(context.Background(), `SELECT * WHERE { ?d <directed> ?m . ?d <awarded> ?a . }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != want.Len() || res.Len() == 0 {
		t.Fatalf("replica answered %d rows, primary %d", res.Len(), want.Len())
	}

	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v", err)
	}
}

// Satellite (d), integration half: a replica whose tail position was
// checkpointed away must re-bootstrap, never apply across the gap.
func TestFollowerEpochGapRebootstraps(t *testing.T) {
	db, hs := newPrimary(t)
	applyOne(t, db, "N._Roeg", "directed", "Walkabout") // epoch 1

	f, err := Follow(hs.URL, WithPollWait(50*time.Millisecond), WithRetryWait(20*time.Millisecond), WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Bootstrap(context.Background()); err != nil { // replica parks at epoch 1
		t.Fatal(err)
	}

	// The primary moves on and checkpoints: the WAL records between
	// epoch 1 and now are truncated away.
	applyOne(t, db, "N._Roeg", "awarded", "BAFTA_Awards")    // epoch 2
	applyOne(t, db, "S._Kubrick", "directed", "The_Shining") // epoch 3
	if _, err := db.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = f.Run(ctx) }()

	waitFor(t, "re-bootstrap past the gap", func() bool {
		s := f.Stats()
		return s.Gaps >= 1 && s.Bootstraps >= 2 && s.Epoch == db.Epoch()
	})
	if err := f.Ready(); err != nil {
		t.Fatalf("recovered replica not ready: %v", err)
	}
}

// applyEvent's epoch discipline, record by record: duplicates skipped,
// gaps refused with ErrWALGap, the in-order record applied.
func TestFollowerApplyEventEpochDiscipline(t *testing.T) {
	st, err := dualsim.FromTriples(queries.Fig1aTriples())
	if err != nil {
		t.Fatal(err)
	}
	db, err := dualsim.Open(st)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	f := &Follower{}
	ctx := context.Background()
	add := []wire.Triple{wire.FromTriple(dualsim.T("N._Roeg", "directed", "Walkabout"))}

	// Epoch 0 record against an epoch-0 session: duplicate, skipped.
	if err := f.applyEvent(ctx, db, client.WALEvent{Kind: wire.WALApply, Epoch: 0, Adds: add}); err != nil {
		t.Fatalf("duplicate record: %v", err)
	}
	if db.Epoch() != 0 || f.applied.Load() != 0 {
		t.Fatalf("duplicate was applied: epoch %d, applied %d", db.Epoch(), f.applied.Load())
	}

	// Epoch 2 against epoch 0: a gap — must refuse, not apply.
	err = f.applyEvent(ctx, db, client.WALEvent{Kind: wire.WALApply, Epoch: 2, Adds: add})
	if !errors.Is(err, client.ErrWALGap) {
		t.Fatalf("gap record returned %v, want ErrWALGap", err)
	}
	if db.Epoch() != 0 {
		t.Fatalf("gap record moved the session to epoch %d", db.Epoch())
	}

	// Epoch 1: exactly next — applies and lands the session there.
	if err := f.applyEvent(ctx, db, client.WALEvent{Kind: wire.WALApply, Epoch: 1, Adds: add}); err != nil {
		t.Fatal(err)
	}
	if db.Epoch() != 1 || f.applied.Load() != 1 {
		t.Fatalf("in-order record: epoch %d, applied %d", db.Epoch(), f.applied.Load())
	}

	// Unknown kinds are a divergence signal, not a silent skip.
	if err := f.applyEvent(ctx, db, client.WALEvent{Kind: "mystery", Epoch: 2}); err == nil {
		t.Fatal("unknown record kind accepted")
	}
}

// Bounded staleness: Ready must flip as the lag crosses the bound.
func TestFollowerReadyStaleness(t *testing.T) {
	st, err := dualsim.FromTriples(queries.Fig1aTriples())
	if err != nil {
		t.Fatal(err)
	}
	db, err := dualsim.OpenAt(st, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	f := &Follower{maxLag: 2}
	f.db.Store(db)
	for primary, wantReady := range map[uint64]bool{5: true, 7: true, 8: false} {
		f.primaryEpoch.Store(primary)
		if err := f.Ready(); (err == nil) != wantReady {
			t.Errorf("replica at 5, primary at %d, maxLag 2: Ready() = %v", primary, err)
		}
	}
}
