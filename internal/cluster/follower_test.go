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

// follow builds a follower of url that polls and retries in
// milliseconds rather than seconds.
func follow(t *testing.T, url string, opts ...FollowerOption) *Follower {
	t.Helper()
	f, err := Follow(url, opts...)
	if err != nil {
		t.Fatal(err)
	}
	f.pollWait, f.retry = 50*time.Millisecond, 20*time.Millisecond
	return f
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

	f := follow(t, hs.URL, WithLogf(t.Logf))
	if db := f.DB(); db.Epoch() != 0 || db.Store().NumTriples() != 0 {
		t.Fatalf("before bootstrap the replica serves epoch %d with %d triples, want an empty epoch-0 session",
			db.Epoch(), db.Store().NumTriples())
	}
	if err := f.Ready(); err == nil {
		t.Fatal("replica ready before bootstrap")
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- f.Run(ctx) }()

	waitFor(t, "bootstrap", func() bool { return f.Stats().Bootstraps > 0 })
	if got := f.DB().Epoch(); got != 1 {
		t.Fatalf("bootstrapped at epoch %d, want 1", got)
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

	f := follow(t, hs.URL, WithLogf(t.Logf))
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
		if f.Stats().Bootstraps == 0 {
			return 0
		}
		snap := f.DB().Snapshot()
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
	f := follow(t, ps.URL, WithLogf(func(format string, args ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}))
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
	f.bootstraps.Store(1)
	for primary, wantReady := range map[uint64]bool{5: true, 7: true, 8: false} {
		f.primaryEpoch.Store(primary)
		if err := f.Ready(); (err == nil) != wantReady {
			t.Errorf("replica at 5, primary at %d, maxLag 2: Ready() = %v", primary, err)
		}
	}
}

// TestServedReplicaFollowsRebootstrap serves a follower through
// server.NewReplica and drives it across an epoch gap: with its tail
// stopped, the primary applies, checkpoints the needed records away and
// applies again. Once the tail resumes, the replica re-bootstraps, and
// the server must answer from the new session: queries at the
// primary's epoch with the triple applied after the gap, a new export
// validator, and /readyz 200. Before the first bootstrap it answers
// /readyz 503 and /v1/apply 403.
func TestServedReplicaFollowsRebootstrap(t *testing.T) {
	db, hs := newPrimary(t)
	f := follow(t, hs.URL, WithLogf(t.Logf))
	srv, err := server.NewReplica(f)
	if err != nil {
		t.Fatal(err)
	}
	rs := httptest.NewServer(srv)
	defer rs.Close()
	rc, err := client.New(rs.URL, client.WithRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	status := func(method, path, body string) int {
		t.Helper()
		req, err := http.NewRequest(method, rs.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := status("GET", "/readyz", ""); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before the first bootstrap = %d, want 503", got)
	}
	if got := status("POST", "/v1/apply", `{"adds":[{"s":"a","p":"b","o":"c"}]}`); got != http.StatusForbidden {
		t.Fatalf("/v1/apply on a replica = %d, want 403", got)
	}

	// run tails until the returned stop is called.
	run := func() (stop func()) {
		rctx, cancel := context.WithCancel(ctx)
		done := make(chan error, 1)
		go func() { done <- f.Run(rctx) }()
		return func() { cancel(); <-done }
	}
	caughtUp := func(what string) {
		t.Helper()
		waitFor(t, what, func() bool { return f.Stats().Bootstraps > 0 && f.DB().Epoch() == db.Epoch() })
	}
	validator := func() string {
		t.Helper()
		ex, err := rc.Export(ctx, []string{"directed"})
		if err != nil {
			t.Fatal(err)
		}
		return ex.ETag
	}
	stop := run()
	caughtUp("the first bootstrap")
	before := validator()
	stop()

	applyOne(t, db, "N._Roeg", "directed", "Walkabout")
	applyOne(t, db, "N._Roeg", "awarded", "BAFTA_Awards")
	if _, err := db.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	applyOne(t, db, "S._Kubrick", "directed", "The_Shining") // after the gap

	defer run()()
	caughtUp("the re-bootstrap past the gap")
	if s := f.Stats(); s.Gaps == 0 || s.Bootstraps < 2 {
		t.Fatalf("stats %+v: want a gap and a re-bootstrap", s)
	}
	out, err := rc.Query(ctx, `SELECT * WHERE { <S._Kubrick> <directed> ?m . }`)
	if err != nil {
		t.Fatal(err)
	}
	if out.Epoch != db.Epoch() || len(out.Rows) != 1 || *out.Rows[0][0] != "<The_Shining>" {
		t.Fatalf("replica answered %v at epoch %d; want The_Shining at the primary's epoch %d", out.Rows, out.Epoch, db.Epoch())
	}
	if after := validator(); after == before {
		t.Fatalf("export validator %s unchanged across a re-bootstrap", after)
	}
	if got := status("GET", "/readyz", ""); got != http.StatusOK {
		t.Fatalf("/readyz after the re-bootstrap = %d, want 200", got)
	}
}
