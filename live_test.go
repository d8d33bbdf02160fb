package dualsim_test

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"dualsim"
)

// TestApplyInvalidatesCachedQuery is the headline live-update
// acceptance path: after Apply of a delta that changes a query's
// answer, a cached Query for the same text returns the new answer
// (epoch-keyed cache miss), while a Snapshot pinned before the apply
// still returns the old one.
func TestApplyInvalidatesCachedQuery(t *testing.T) {
	ctx := context.Background()
	st := fig1a(t)
	db, err := dualsim.Open(st, dualsim.WithPlanCache(8))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const q = `SELECT * WHERE { ?d <directed> ?m . ?d <worked_with> ?c . }`
	res, stats, err := db.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Epoch != 0 {
		t.Fatalf("fresh session served epoch %d", stats.Epoch)
	}
	before := res.Len()
	if before != 2 {
		t.Fatalf("baseline X1 results = %d, want 2", before)
	}
	if _, stats, err = db.Query(ctx, q); err != nil || !stats.CacheHit {
		t.Fatalf("warm query not served from cache (err %v)", err)
	}

	pinned := db.Snapshot()
	if pinned.Epoch() != 0 {
		t.Fatalf("pinned epoch = %d, want 0", pinned.Epoch())
	}

	// A new director with a coworker: one more X1 match.
	as, err := db.Apply(ctx, dualsim.Delta{Adds: []dualsim.Triple{
		dualsim.T("J._McTiernan", "directed", "Die_Hard"),
		dualsim.T("J._McTiernan", "worked_with", "S._de_Souza"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if as.Epoch != 1 || as.Added != 2 || as.Deleted != 0 || as.Compacted {
		t.Fatalf("ApplyStats = %+v", as)
	}
	if as.OverlaySize != 2 {
		t.Fatalf("OverlaySize = %d, want 2", as.OverlaySize)
	}
	if db.Epoch() != 1 {
		t.Fatalf("db.Epoch() = %d, want 1", db.Epoch())
	}

	// Same text, post-update: the epoch-keyed cache must miss, re-plan,
	// and answer from the new snapshot.
	res, stats, err = db.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheHit {
		t.Fatal("post-update query served a pre-update plan")
	}
	if stats.Epoch != 1 {
		t.Fatalf("post-update query served epoch %d, want 1", stats.Epoch)
	}
	if res.Len() != before+1 {
		t.Fatalf("post-update results = %d, want %d", res.Len(), before+1)
	}

	// The pinned snapshot keeps answering from epoch 0.
	oldRes, oldStats, err := pinned.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if oldStats.Epoch != 0 {
		t.Fatalf("pinned query served epoch %d, want 0", oldStats.Epoch)
	}
	if oldRes.Len() != before {
		t.Fatalf("pinned results = %d, want %d", oldRes.Len(), before)
	}

	// Deleting the new edges restores the old answer at epoch 2.
	as, err = db.Apply(ctx, dualsim.Delta{Dels: []dualsim.Triple{
		dualsim.T("J._McTiernan", "directed", "Die_Hard"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	// OverlaySize counts effective changes since the last compaction:
	// two adds, then one delete.
	if as.Deleted != 1 || as.OverlaySize != 3 {
		t.Fatalf("delete ApplyStats = %+v", as)
	}
	res, stats, err = db.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Epoch != 2 || res.Len() != before {
		t.Fatalf("epoch %d results %d, want epoch 2 results %d", stats.Epoch, res.Len(), before)
	}

	if inv := db.CacheStats().Invalidations; inv < 1 {
		t.Fatalf("Invalidations = %d, want ≥ 1", inv)
	}
}

// TestPreparedQueryPinsEpoch: a PreparedQuery keeps answering from the
// snapshot it was planned on, while fresh prepares see updates.
// TestApplyEmptyDeltaNoOp is the session-level regression test for the
// empty-Delta contract: no epoch bump, no snapshot swap, and — the
// serving-relevant part — no plan-cache invalidation, so the next Query
// still hits its cached plan.
func TestApplyEmptyDeltaNoOp(t *testing.T) {
	ctx := context.Background()
	db, err := dualsim.Open(fig1a(t), dualsim.WithPlanCache(8))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const q = `SELECT * WHERE { ?d <directed> ?m . ?d <worked_with> ?c . }`
	if _, _, err := db.Query(ctx, q); err != nil {
		t.Fatal(err)
	}
	storeBefore := db.Store()
	csBefore := db.CacheStats()

	as, err := db.Apply(ctx, dualsim.Delta{})
	if err != nil {
		t.Fatal(err)
	}
	if !as.NoOp || as.Epoch != 0 || as.Added != 0 || as.Deleted != 0 || as.Compacted {
		t.Fatalf("empty apply stats: %+v", as)
	}
	if db.Epoch() != 0 {
		t.Fatalf("empty apply bumped the epoch to %d", db.Epoch())
	}
	if db.Store() != storeBefore {
		t.Fatal("empty apply swapped the snapshot")
	}
	if cs := db.CacheStats(); cs.Invalidations != csBefore.Invalidations {
		t.Fatalf("empty apply invalidated cached plans: %+v", cs)
	}

	res, stats, err := db.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.CacheHit || stats.Epoch != 0 {
		t.Fatalf("post-no-op query re-planned: hit=%v epoch=%d", stats.CacheHit, stats.Epoch)
	}
	if res.Len() != 2 {
		t.Fatalf("post-no-op results = %d, want 2", res.Len())
	}
}

func TestPreparedQueryPinsEpoch(t *testing.T) {
	ctx := context.Background()
	db, err := dualsim.Open(fig1a(t))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const q = `SELECT * WHERE { ?m <genre> <Action> . }`
	pq0, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	res0, _, err := pq0.Exec(ctx)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := db.Apply(ctx, dualsim.Delta{Adds: []dualsim.Triple{
		dualsim.T("Die_Hard", "genre", "Action"),
	}}); err != nil {
		t.Fatal(err)
	}

	resOld, statsOld, err := pq0.Exec(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if statsOld.Epoch != 0 || resOld.Len() != res0.Len() {
		t.Fatalf("pinned prepared query drifted: epoch %d, %d rows (want 0, %d)",
			statsOld.Epoch, resOld.Len(), res0.Len())
	}

	pq1, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	resNew, statsNew, err := pq1.Exec(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if statsNew.Epoch != 1 || resNew.Len() != res0.Len()+1 {
		t.Fatalf("fresh prepare missed the update: epoch %d, %d rows", statsNew.Epoch, resNew.Len())
	}
}

// TestApplyCompaction: crossing WithCompactionThreshold consolidates the
// store mid-Apply; answers stay correct and the change count resets.
func TestApplyCompaction(t *testing.T) {
	ctx := context.Background()
	db, err := dualsim.Open(fig1a(t), dualsim.WithCompactionThreshold(3))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	if _, err := db.Apply(ctx, dualsim.Delta{Adds: []dualsim.Triple{
		dualsim.T("A1", "directed", "M1"),
		dualsim.T("A1", "worked_with", "C1"),
	}}); err != nil {
		t.Fatal(err)
	}
	as, err := db.Apply(ctx, dualsim.Delta{Adds: []dualsim.Triple{
		dualsim.T("A2", "directed", "M2"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if n := db.Snapshot().Compactions(); !as.Compacted || as.OverlaySize != 0 || n != 1 {
		t.Fatalf("threshold crossing did not compact: %+v (compactions %d)", as, n)
	}

	res, stats, err := db.Exec(ctx, `SELECT * WHERE { ?d <directed> ?m . }`)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Epoch != 2 {
		t.Fatalf("epoch = %d, want 2", stats.Epoch)
	}
	if res.Len() != 6 { // 4 original directors' movies + M1 + M2
		t.Fatalf("post-compaction results = %d, want 6", res.Len())
	}

	// Explicit Compact is a no-op data-wise but advances the epoch.
	as, err = db.Compact(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !as.Compacted || as.Epoch != 3 {
		t.Fatalf("Compact stats = %+v", as)
	}
}

// TestApplyAtomicDelta: an invalid triple anywhere in the delta fails
// the whole Apply with nothing changed: not the epoch, not the change
// count, not the dictionary.
func TestApplyAtomicDelta(t *testing.T) {
	ctx := context.Background()
	db, err := dualsim.Open(fig1a(t))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	nodes := db.Store().NumNodes()
	bad := dualsim.Delta{Adds: []dualsim.Triple{
		dualsim.T("fine", "p", "ok"),
		{S: dualsim.Literal("bad"), P: "p", O: dualsim.IRI("x")},
	}}
	if _, err := db.Apply(ctx, bad); err == nil {
		t.Fatal("Apply accepted an invalid delta")
	}
	snap := db.Snapshot()
	if snap.Epoch() != 0 || snap.OverlaySize() != 0 {
		t.Fatalf("failed Apply left state: epoch %d, overlay %d", snap.Epoch(), snap.OverlaySize())
	}
	if snap.Store().NumTriples() != 20 || snap.Store().NumNodes() != nodes {
		t.Fatalf("failed Apply changed the store: %d triples, %d nodes (want 20, %d)",
			snap.Store().NumTriples(), snap.Store().NumNodes(), nodes)
	}
}

// abcStore is a three-node cycle: a -p-> b -p-> c -q-> a.
func abcStore(t *testing.T) *dualsim.Store {
	t.Helper()
	st, err := dualsim.FromTriples([]dualsim.Triple{
		dualsim.T("a", "p", "b"), dualsim.T("b", "p", "c"), dualsim.T("c", "q", "a"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestApplyAtomicOnError: an invalid triple among the deletes fails the
// valid adds with it, and the next valid Apply starts from the untouched
// lineage: epoch 1, a change count of its own changes only.
func TestApplyAtomicOnError(t *testing.T) {
	ctx := context.Background()
	db, err := dualsim.Open(abcStore(t))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	bad := dualsim.Delta{
		Adds: []dualsim.Triple{dualsim.T("ok", "p", "fine")},
		Dels: []dualsim.Triple{{S: dualsim.Literal("nope"), P: "p", O: dualsim.IRI("x")}},
	}
	if _, err := db.Apply(ctx, bad); err == nil {
		t.Fatal("Apply accepted an invalid delta")
	}
	if e := db.Epoch(); e != 0 {
		t.Fatalf("failed Apply advanced the epoch to %d", e)
	}
	if s := db.Snapshot().OverlaySize(); s != 0 {
		t.Fatalf("failed Apply counted %d changes", s)
	}
	if n := db.Store().NumNodes(); n != 3 {
		t.Fatalf("failed Apply grew the dictionary to %d terms", n)
	}
	as, err := db.Apply(ctx, dualsim.Delta{Adds: []dualsim.Triple{dualsim.T("d", "p", "a")}})
	if err != nil {
		t.Fatal(err)
	}
	if as.Epoch != 1 || as.Added != 1 || as.OverlaySize != 1 || as.NewTerms != 1 {
		t.Fatalf("apply after a failed one: %+v", as)
	}
}

// TestApplyEmptyDeltaKeepsOverlay: an empty delta after a real one
// publishes nothing — same store, same epoch — and reports the change
// count of the pending changes unchanged.
func TestApplyEmptyDeltaKeepsOverlay(t *testing.T) {
	ctx := context.Background()
	db, err := dualsim.Open(abcStore(t))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Apply(ctx, dualsim.Delta{Adds: []dualsim.Triple{dualsim.T("d", "p", "a")}}); err != nil {
		t.Fatal(err)
	}
	before := db.Store()
	as, err := db.Apply(ctx, dualsim.Delta{})
	if err != nil {
		t.Fatal(err)
	}
	if !as.NoOp || as.Epoch != 1 || as.Added != 0 || as.Deleted != 0 || as.OverlaySize != 1 {
		t.Fatalf("empty apply stats: %+v", as)
	}
	if db.Store() != before {
		t.Fatal("empty apply published a new snapshot")
	}
	if e, s := db.Epoch(), db.Snapshot().OverlaySize(); e != 1 || s != 1 {
		t.Fatalf("after the empty apply: epoch %d, overlay %d (want 1, 1)", e, s)
	}
}

// TestAutoCompaction: the apply that brings the change count to the
// threshold compacts the store in the same epoch step, onto a
// dictionary holding exactly the live terms.
func TestAutoCompaction(t *testing.T) {
	ctx := context.Background()
	db, err := dualsim.Open(abcStore(t), dualsim.WithCompactionThreshold(2))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	as, err := db.Apply(ctx, dualsim.Delta{Adds: []dualsim.Triple{dualsim.T("x1", "p", "y1")}})
	if err != nil || as.Compacted {
		t.Fatalf("below-threshold apply compacted: %+v err %v", as, err)
	}
	as, err = db.Apply(ctx, dualsim.Delta{Adds: []dualsim.Triple{dualsim.T("x2", "p", "y2")}})
	if err != nil {
		t.Fatal(err)
	}
	if !as.Compacted || as.OverlaySize != 0 || as.Epoch != 2 {
		t.Fatalf("threshold apply did not compact: %+v", as)
	}
	snap := db.Snapshot()
	if n := snap.Compactions(); n != 1 {
		t.Fatalf("Compactions = %d, want 1", n)
	}
	got := map[string]bool{}
	for _, tr := range snap.Store().Triples() {
		got[tr.S.Key()+"|"+tr.P+"|"+tr.O.Key()] = true
	}
	want := map[string]bool{
		"i:a|p|i:b": true, "i:b|p|i:c": true, "i:c|q|i:a": true,
		"i:x1|p|i:y1": true, "i:x2|p|i:y2": true,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("compacted store wrong:\n got %v\nwant %v", got, want)
	}
	if n := snap.Store().NumNodes(); n != 7 {
		t.Fatalf("compacted NumNodes = %d, want 7", n)
	}
}

// The stress tests share one shape: the store holds exactly one
// <counter> <value> ?v triple at any epoch, and apply k swaps v(k-1)
// for v(k). A request is consistent iff its single row's ?v binding is
// the value of the epoch its stats report — a mixed-epoch read (pruned
// store from one epoch, evaluation on another) or a stale cached plan
// surfaces as a value/epoch mismatch or a wrong row count.

const stressQuery = `SELECT * WHERE { <counter> <value> ?v . }`

func stressStore(t *testing.T) *dualsim.Store {
	t.Helper()
	st, err := dualsim.FromTriples([]dualsim.Triple{
		dualsim.T("counter", "value", "v0"),
		// Background triples so pruning has something to discard.
		dualsim.T("a", "p", "b"),
		dualsim.T("b", "p", "c"),
		dualsim.T("c", "q", "a"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func stressDelta(k int) dualsim.Delta {
	return dualsim.Delta{
		Adds: []dualsim.Triple{
			dualsim.T("counter", "value", fmt.Sprintf("v%d", k)),
			// A persistent log edge per apply, so the store grows across
			// epochs; with the swap, each apply makes three effective
			// changes toward the compaction threshold.
			dualsim.T("log", "entry", fmt.Sprintf("e%d", k)),
		},
		Dels: []dualsim.Triple{dualsim.T("counter", "value", fmt.Sprintf("v%d", k-1))},
	}
}

// checkEpochRow asserts a stress result is internally consistent:
// exactly one row, whose ?v binding (decoded against st) is the value
// triple of the epoch the stats claim the request was answered from.
func checkEpochRow(st *dualsim.Store, res *dualsim.Result, stats *dualsim.ExecStats) error {
	if res.Len() != 1 {
		return fmt.Errorf("epoch %d: %d rows, want 1", stats.Epoch, res.Len())
	}
	vi := res.VarIndex("v")
	if vi < 0 {
		return fmt.Errorf("epoch %d: variable v missing from %v", stats.Epoch, res.Vars)
	}
	want := fmt.Sprintf("v%d", stats.Epoch)
	got := st.Term(res.Row(0)[vi]).Value
	if got != want {
		return fmt.Errorf("answer %q served with epoch %d stats (want %q): stale or mixed-epoch read", got, stats.Epoch, want)
	}
	return nil
}

// TestLiveStress interleaves Apply with concurrent Query under -race. No compaction here, so node ids are stable across the
// whole lineage and any later snapshot decodes earlier results.
func TestLiveStress(t *testing.T) {
	ctx := context.Background()
	db, err := dualsim.Open(stressStore(t), dualsim.WithPlanCache(4))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const (
		applies = 60
		readers = 4
	)
	var wg sync.WaitGroup
	var stop atomic.Bool
	errc := make(chan error, readers+1)

	// Readers: single queries through the epoch-keyed plan cache.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				res, stats, err := db.Query(ctx, stressQuery)
				if err == nil {
					err = checkEpochRow(db.Store(), res, stats)
				}
				if err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	// The single writer. The query between applies guarantees a cached
	// plan exists at every epoch, so each following apply must invalidate
	// it — and exercises the read-your-writes path.
	for k := 1; k <= applies; k++ {
		as, err := db.Apply(ctx, stressDelta(k))
		if err != nil {
			t.Fatal(err)
		}
		if as.Epoch != uint64(k) {
			t.Fatalf("apply %d landed at epoch %d", k, as.Epoch)
		}
		res, stats, err := db.Query(ctx, stressQuery)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Epoch < uint64(k) {
			t.Fatalf("read-your-writes violated: apply %d, query answered epoch %d", k, stats.Epoch)
		}
		if err := checkEpochRow(db.Store(), res, stats); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// Post-update, the cache serves the final epoch's answer.
	res, stats, err := db.Query(ctx, stressQuery)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Epoch != uint64(applies) {
		t.Fatalf("final query at epoch %d, want %d", stats.Epoch, applies)
	}
	if err := checkEpochRow(db.Store(), res, stats); err != nil {
		t.Fatal(err)
	}
	if cs := db.CacheStats(); cs.Invalidations == 0 {
		t.Fatalf("no stale plans invalidated across %d applies: %+v", applies, cs)
	}
}

// TestLiveStressCompaction repeats the interleaving with compaction in
// the writer loop. Compaction renumbers node ids, so readers pin a
// Snapshot per request and decode against the pinned store — exactly
// the repeatable-read pattern the API prescribes.
func TestLiveStressCompaction(t *testing.T) {
	ctx := context.Background()
	db, err := dualsim.Open(stressStore(t), dualsim.WithPlanCache(4), dualsim.WithCompactionThreshold(5))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const (
		applies = 40
		readers = 4
	)
	var wg sync.WaitGroup
	var stop atomic.Bool
	errc := make(chan error, readers)

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				snap := db.Snapshot()
				res, stats, err := snap.Query(ctx, stressQuery)
				if err == nil && stats.Epoch != snap.Epoch() {
					err = fmt.Errorf("pinned query answered epoch %d, pinned %d", stats.Epoch, snap.Epoch())
				}
				if err == nil {
					err = checkEpochRow(snap.Store(), res, stats)
				}
				if err != nil {
					errc <- err
					return
				}
			}
		}()
	}

	for k := 1; k <= applies; k++ {
		if _, err := db.Apply(ctx, stressDelta(k)); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if db.Snapshot().Compactions() == 0 {
		t.Fatal("compaction threshold never crossed")
	}
	res, stats, err := db.Query(ctx, stressQuery)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkEpochRow(db.Store(), res, stats); err != nil {
		t.Fatal(err)
	}
}

// liveTerms counts the distinct subject and object terms of st's triples:
// the dictionary a rebuild from scratch would hold.
func liveTerms(st *dualsim.Store) int {
	seen := map[string]bool{}
	for _, tr := range st.Triples() {
		seen[tr.S.Key()] = true
		seen[tr.O.Key()] = true
	}
	return len(seen)
}

// TestChurnCompacts: compaction follows churn, not net deviation. Each
// apply swaps the one <counter> <value> triple for a fresh value, so the
// store's size never changes while every apply interns a term; the
// threshold must still fire and keep the dictionary near the live terms.
func TestChurnCompacts(t *testing.T) {
	ctx := context.Background()
	db, err := dualsim.Open(stressStore(t), dualsim.WithCompactionThreshold(3))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for k := 1; k <= 200; k++ {
		if _, err := db.Apply(ctx, dualsim.Delta{
			Adds: []dualsim.Triple{dualsim.T("counter", "value", fmt.Sprintf("v%d", k))},
			Dels: []dualsim.Triple{dualsim.T("counter", "value", fmt.Sprintf("v%d", k-1))},
		}); err != nil {
			t.Fatal(err)
		}
		st := db.Store()
		if n, live := st.NumNodes(), liveTerms(st); n > 2*live {
			t.Fatalf("apply %d: %d nodes for %d live terms", k, n, live)
		}
	}
	if n := db.Snapshot().Compactions(); n == 0 {
		t.Fatal("200 swaps at threshold 3 never compacted")
	}
}

// TestExplicitCompactReclaimsDictionary: terms of a deleted triple stay
// interned until Compact rebuilds the dictionary from the live triples.
func TestExplicitCompactReclaimsDictionary(t *testing.T) {
	ctx := context.Background()
	db, err := dualsim.Open(abcStore(t))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tmp := []dualsim.Triple{dualsim.T("tmp", "p", "tmp2")}
	if _, err := db.Apply(ctx, dualsim.Delta{Adds: tmp}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Apply(ctx, dualsim.Delta{Dels: tmp}); err != nil {
		t.Fatal(err)
	}
	if n := db.Store().NumNodes(); n != 5 {
		t.Fatalf("pre-compaction NumNodes = %d, want 5 (a b c tmp tmp2)", n)
	}
	as, err := db.Compact(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !as.Compacted || as.Epoch != 3 || as.OverlaySize != 0 {
		t.Fatalf("Compact stats = %+v", as)
	}
	if n := db.Store().NumNodes(); n != 3 {
		t.Fatalf("post-compaction NumNodes = %d, want 3 (a b c)", n)
	}
}

// TestPinnedSnapshotKeepsDeletedTriple: a snapshot pinned before an
// Apply keeps serving a triple the Apply deleted.
func TestPinnedSnapshotKeepsDeletedTriple(t *testing.T) {
	ctx := context.Background()
	db, err := dualsim.Open(fig1a(t))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const q = `SELECT * WHERE { ?d <directed> ?m . }`
	pinned := db.Snapshot()
	before, _, err := pinned.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	row := before.Row(0)
	gone := dualsim.Triple{
		S: pinned.Store().Term(row[before.VarIndex("d")]),
		P: "directed",
		O: pinned.Store().Term(row[before.VarIndex("m")]),
	}
	as, err := db.Apply(ctx, dualsim.Delta{Dels: []dualsim.Triple{gone}})
	if err != nil {
		t.Fatal(err)
	}
	if as.Deleted != 1 {
		t.Fatalf("delete ApplyStats = %+v", as)
	}
	live, _, err := db.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if live.Len() != before.Len()-1 {
		t.Fatalf("live query after the delete: %d rows, want %d", live.Len(), before.Len()-1)
	}
	again, stats, err := pinned.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Epoch != 0 || again.Len() != before.Len() {
		t.Fatalf("pinned snapshot at epoch %d serves %d rows, want epoch 0 and %d", stats.Epoch, again.Len(), before.Len())
	}
}
