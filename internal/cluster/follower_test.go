package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dualsim"
	"dualsim/client"
	"dualsim/internal/persist"
	"dualsim/internal/queries"
	"dualsim/internal/server"
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
	add := []dualsim.Triple{dualsim.T("N._Roeg", "directed", "Walkabout")}

	// Epoch 0 record against an epoch-0 session: duplicate, skipped.
	if err := f.applyEvent(ctx, db, persist.Record{Kind: persist.RecordApply, Epoch: 0, Adds: add}); err != nil {
		t.Fatalf("duplicate record: %v", err)
	}
	if db.Epoch() != 0 || f.applied.Load() != 0 {
		t.Fatalf("duplicate was applied: epoch %d, applied %d", db.Epoch(), f.applied.Load())
	}

	// Epoch 2 against epoch 0: a gap — must refuse, not apply.
	err = f.applyEvent(ctx, db, persist.Record{Kind: persist.RecordApply, Epoch: 2, Adds: add})
	if !errors.Is(err, client.ErrWALGap) {
		t.Fatalf("gap record returned %v, want ErrWALGap", err)
	}
	if db.Epoch() != 0 {
		t.Fatalf("gap record moved the session to epoch %d", db.Epoch())
	}

	// Epoch 1: exactly next — applies and lands the session there.
	if err := f.applyEvent(ctx, db, persist.Record{Kind: persist.RecordApply, Epoch: 1, Adds: add}); err != nil {
		t.Fatal(err)
	}
	if db.Epoch() != 1 || f.applied.Load() != 1 {
		t.Fatalf("in-order record: epoch %d, applied %d", db.Epoch(), f.applied.Load())
	}
	if !slices.Contains(db.Store().Triples(), add[0]) {
		t.Fatalf("in-order record did not add %v", add[0])
	}

	// Unknown kinds are a divergence signal, not a silent skip.
	if err := f.applyEvent(ctx, db, persist.Record{Kind: 9, Epoch: 2}); err == nil {
		t.Fatal("unknown record kind accepted")
	}
}

// sortedTriples is a snapshot's store as sorted N-Triples-like lines.
func sortedTriples(snap *dualsim.Snapshot) []string {
	var out []string
	for _, tr := range snap.Store().Triples() {
		out = append(out, fmt.Sprint(tr))
	}
	sort.Strings(out)
	return out
}

// without returns the lines of a missing from b.
func without(a, b []string) []string {
	var out []string
	for _, l := range a {
		if !slices.Contains(b, l) {
			out = append(out, l)
		}
	}
	return out
}

// TestFollowerRefusesACorruptTail puts a proxy between a replica and a
// durable primary that flips one byte inside a tail record's triple.
// The replica must apply nothing from that record on, stay at its
// epoch and report the error; at every epoch it reports, its store is
// the primary's store at that epoch.
func TestFollowerRefusesACorruptTail(t *testing.T) {
	db, hs := newPrimary(t)
	target, err := url.Parse(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	var corrupt atomic.Bool
	proxy := httputil.NewSingleHostReverseProxy(target)
	proxy.ErrorLog = log.New(io.Discard, "", 0) // the replica's polls end with the test
	proxy.ModifyResponse = func(resp *http.Response) error {
		if !corrupt.Load() || resp.Request.URL.Path != "/v1/wal" || resp.StatusCode != http.StatusOK {
			return nil
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if i := bytes.Index(body, []byte("Corrupt_Me")); i >= 0 {
			body[i] ^= 'C' ^ 'K' // the same length, another subject
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
		return nil
	}
	ps := httptest.NewServer(proxy)
	defer ps.Close()

	var mu sync.Mutex
	primary := map[uint64][]string{0: sortedTriples(db.Snapshot())}
	var logs []string
	apply := func(s, p, o string) {
		applyOne(t, db, s, p, o)
		snap := db.Snapshot()
		mu.Lock()
		primary[snap.Epoch()] = sortedTriples(snap)
		mu.Unlock()
	}
	// consistent compares the replica with the primary at the epoch the
	// replica reports, and returns that epoch.
	consistent := func(f *Follower) uint64 {
		rdb := f.DB()
		if rdb == nil {
			return 0
		}
		snap := rdb.Snapshot()
		got := sortedTriples(snap)
		mu.Lock()
		want, ok := primary[snap.Epoch()]
		mu.Unlock()
		if !ok || !slices.Equal(got, want) {
			t.Fatalf("replica at epoch %d holds %v and lacks %v of the primary's store",
				snap.Epoch(), without(got, want), without(want, got))
		}
		return snap.Epoch()
	}
	f, err := Follow(ps.URL, WithPollWait(50*time.Millisecond), WithRetryWait(20*time.Millisecond),
		WithLogf(func(format string, args ...any) {
			mu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = f.Run(ctx) }()

	apply("N._Roeg", "directed", "Walkabout") // epoch 1 arrives intact
	waitFor(t, "catch-up to epoch 1", func() bool { return consistent(f) == 1 })
	corrupt.Store(true)
	apply("Corrupt_Me", "directed", "Walkabout")   // epoch 2 is damaged in transit
	apply("S._Kubrick", "directed", "The_Shining") // and so is the tail holding epoch 3
	waitFor(t, "the damaged tail reported", func() bool {
		consistent(f)
		mu.Lock()
		defer mu.Unlock()
		return slices.ContainsFunc(logs, func(l string) bool { return strings.Contains(l, "CRC") })
	})
	// Several more damaged rounds: the replica stays where it was, and
	// reports the lag: it is not ready at the default bound of 0.
	for end := time.Now().Add(200 * time.Millisecond); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
		if e := consistent(f); e != 1 {
			t.Fatalf("replica moved to epoch %d past a damaged record", e)
		}
	}
	if st := f.Stats(); st.Epoch != 1 || st.Lag < 2 {
		t.Errorf("stuck replica reports %+v; want epoch 1 and a lag of at least 2", st)
	}
	if err := f.Ready(); err == nil {
		t.Error("a replica stuck behind a damaged tail reports ready")
	}
	corrupt.Store(false)
	waitFor(t, "catch-up to epoch 3", func() bool { return consistent(f) == 3 })
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
