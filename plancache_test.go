package dualsim

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dualsim/internal/queries"
	qstats "dualsim/internal/stats"
)

// keyPair is two spellings of one query that a whitespace- and
// comment-normalizing plan-cache key would have treated as one text
// (sameShape is false where even a normalizer keeps them apart, or
// where their statement fingerprints differ).
type keyPair struct {
	name      string
	a, b      string
	sameShape bool // the two texts share a statement fingerprint
}

// keyPairs are the perturbation pairs of the plan-cache key tests:
// whitespace, comments, whitespace inside literals, quote style and
// '#' inside IRIs.
func keyPairs() []keyPair {
	return []keyPair{
		{"whitespace", "SELECT * WHERE { ?a <p> ?b . }", "  SELECT\n*\tWHERE  {\n?a <p> ?b\n.\n} ", true},
		{"comment", "SELECT * WHERE { ?a <p> ?b . }", "SELECT * WHERE { # comment\n ?a <p> ?b . }", true},
		{"commented-out pattern", "SELECT * WHERE { ?a <p> ?b . ?b <q> ?d . }", "SELECT * WHERE { ?a <p> ?b . # ?b <q> ?d .\n}", false},
		{"literal whitespace", `SELECT * WHERE { ?x <name> "a b" . }`, `SELECT * WHERE { ?x <name> "a  b" . }`, true},
		{"quote style", `SELECT * WHERE { ?x <name> "a b" . }`, `SELECT * WHERE { ?x <name> 'a  b' . }`, true},
		{"escaped quote", `SELECT * WHERE { ?x <name> "a\" b" . }`, `SELECT * WHERE { ?x <name> "a\"  b" . }`, true},
		{"IRI fragment", `SELECT * WHERE { ?x <http://e/p#a> ?y . }`, `SELECT * WHERE { ?x <http://e/p#b> ?y . }`, false},
	}
}

// keyPairsDB opens a session with a plan cache over a store that
// answers every keyPairs text with at least one row.
func keyPairsDB(t *testing.T) *DB {
	t.Helper()
	st, err := FromTriples([]Triple{
		T("s1", "p", "o1"), T("o1", "q", "x"),
		TL("s1", "name", "a b"), TL("s2", "name", "a  b"),
		TL("s3", "name", `a" b`), TL("s4", "name", `a"  b`),
		T("s1", "http://e/p#a", "o2"), T("s2", "http://e/p#b", "o3"),
	})
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(st, WithPlanCache(1024))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// TestPlanCacheKeysExactText: the plan cache keys on the text exactly
// as sent. Over keyPairs, two texts share an entry exactly when they
// are byte-equal (a byte-equal copy hits, any other text misses and
// plans once), and every answer, cached or not, equals an uncached
// db.Exec of the same text.
func TestPlanCacheKeysExactText(t *testing.T) {
	pairs := keyPairs()
	db := keyPairsDB(t)
	ctx := context.Background()
	seen := map[string]bool{}
	n := 0
	query := func(name, src string) {
		t.Helper()
		got, stats, err := db.Query(ctx, src)
		if err != nil {
			t.Fatalf("%s: %q: %v", name, src, err)
		}
		if stats.CacheHit != seen[src] {
			t.Fatalf("%s: %q: hit=%v, want %v", name, src, stats.CacheHit, seen[src])
		}
		seen[src] = true
		n++
		want, _, err := db.Exec(ctx, src)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: %q: Query answered %v, Exec %v", name, src, got, want)
		}
	}
	for _, p := range pairs {
		query(p.name, p.a)
		query(p.name, p.b)
		// A byte-equal copy in fresh memory is the same key.
		query(p.name, strings.Clone(p.a))
		query(p.name, strings.Clone(p.b))
	}
	cs := db.CacheStats()
	if cs.Size != len(seen) || cs.Misses != int64(len(seen)) || cs.Hits != int64(n-len(seen)) {
		t.Fatalf("cache stats %+v after %d queries of %d distinct texts", cs, n, len(seen))
	}
	// The key carries the epoch: after an Apply the same text misses.
	if _, err := db.Apply(ctx, Delta{Adds: []Triple{T("s9", "p", "o9")}}); err != nil {
		t.Fatal(err)
	}
	if _, stats, err := db.Query(ctx, pairs[0].a); err != nil || stats.CacheHit {
		t.Fatalf("first query after an Apply: hit=%v err=%v, want a miss", stats != nil && stats.CacheHit, err)
	}
}

// TestNormalizeQuery: a query's text is normalized in one place, its
// statement fingerprint, and not in the plan-cache key. Over keyPairs,
// the two spellings of a pair each plan once, yet report one
// fingerprint exactly when they differ only in whitespace, comments or
// literal values; a commented-out pattern or another IRI is another
// statement. A hit reports the fingerprint of the miss that filled it,
// which is that of the text parsed on its own. Text that ends inside a
// literal, an IRI, an escape or a comment errors on every call and is
// never cached.
func TestNormalizeQuery(t *testing.T) {
	db := keyPairsDB(t)
	ctx := context.Background()
	planned := map[string]bool{}
	fingerprint := func(src string) string {
		t.Helper()
		_, st, err := db.Query(ctx, src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if st.CacheHit != planned[src] {
			t.Fatalf("%q: hit=%v, want %v", src, st.CacheHit, planned[src])
		}
		planned[src] = true
		if want := qstats.OfSource(src).ID; st.Fingerprint != want {
			t.Fatalf("%q: fingerprint %q, want %q", src, st.Fingerprint, want)
		}
		return st.Fingerprint
	}
	for _, p := range keyPairs() {
		fa, fb := fingerprint(p.a), fingerprint(p.b)
		if (fa == fb) != p.sameShape {
			t.Errorf("%s: fingerprints %q and %q, want equal=%v", p.name, fa, fb, p.sameShape)
		}
		if again := fingerprint(p.b); again != fb {
			t.Errorf("%s: a hit reports fingerprint %q, its miss %q", p.name, again, fb)
		}
	}
	size := db.CacheStats().Size
	for _, src := range []string{`SELECT * WHERE { ?x <name> "unterminated`, `SELECT * WHERE { ?x <unterminated`, `SELECT * WHERE { ?x <name> "x \`, "SELECT * WHERE { # only a comment", ""} {
		for range 2 {
			if _, _, err := db.Query(ctx, src); err == nil {
				t.Fatalf("%q: no error", src)
			}
		}
	}
	if got := db.CacheStats().Size; got != size {
		t.Fatalf("cache size %d after unparseable texts, was %d", got, size)
	}
}

// TestPlanKeyMatchesNormalizedText: a plan-cache entry answers only the
// text that filled it, even where a normalized text would match. Over
// random whitespace, comment, IRI and literal perturbations of
// keyPairs' texts, each sent twice in shuffled order, db.Query hits
// exactly when the same bytes were planned before in the epoch; a text
// that does not parse errors as an uncached db.Exec does and is never
// cached; texts that share a fingerprint but differ in bytes each plan
// once; and every answer equals db.Exec's. After an Apply every text
// misses once more.
func TestPlanKeyMatchesNormalizedText(t *testing.T) {
	// Each edit inserts at a random position, so it lands in whitespace,
	// inside a token, a comment, an IRI or a literal; some open or close
	// such regions.
	edits := []string{" ", "\t", "\n  ", "# c\n", "#", " # x", "<", ">", "<i j>", `"`, "'", `\`, `" s "`, "x", "."}
	r := rand.New(rand.NewSource(1))
	var texts []string
	for _, p := range keyPairs() {
		for _, src := range []string{p.a, p.b} {
			texts = append(texts, src)
			for range 20 {
				q := src
				for range 1 + r.Intn(3) {
					i := r.Intn(len(q) + 1)
					q = q[:i] + edits[r.Intn(len(edits))] + q[i:]
				}
				texts = append(texts, q)
			}
		}
	}
	sends := append(append([]string(nil), texts...), texts...)
	r.Shuffle(len(sends), func(i, j int) { sends[i], sends[j] = sends[j], sends[i] })
	db := keyPairsDB(t)
	ctx := context.Background()
	for epoch := range 2 {
		planned := map[string]bool{}
		variants := map[string]map[string]bool{} // fingerprint -> texts planned
		hits := 0
		for _, src := range sends {
			got, st, err := db.Query(ctx, src)
			want, _, werr := db.Exec(ctx, src)
			if (err == nil) != (werr == nil) {
				t.Fatalf("epoch %d: %q: Query error %v, Exec error %v", epoch, src, err, werr)
			}
			if err != nil {
				continue
			}
			if st.CacheHit != planned[src] {
				t.Fatalf("epoch %d: %q: hit=%v, want %v", epoch, src, st.CacheHit, planned[src])
			}
			if !got.Equal(want) {
				t.Fatalf("epoch %d: %q: Query answered %v, Exec %v", epoch, src, got, want)
			}
			if st.CacheHit {
				hits++
			}
			planned[src] = true
			if variants[st.Fingerprint] == nil {
				variants[st.Fingerprint] = map[string]bool{}
			}
			variants[st.Fingerprint][src] = true
		}
		if got := db.CacheStats().Size; got != len(planned) {
			t.Fatalf("epoch %d: cache holds %d entries for %d planned texts", epoch, got, len(planned))
		}
		shared := 0
		for _, v := range variants {
			if len(v) > 1 {
				shared++
			}
		}
		if hits == 0 || shared == 0 {
			t.Fatalf("epoch %d: %d hits, %d fingerprints with several texts: the property is vacuous", epoch, hits, shared)
		}
		if _, err := db.Apply(ctx, Delta{Adds: []Triple{T("s9", "p", "o9")}}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestQueryLiteralWhitespaceDistinct: end-to-end guard for the key rule —
// two queries differing only inside a string literal must not share a
// cached plan.
func TestQueryLiteralWhitespaceDistinct(t *testing.T) {
	st, err := FromTriples([]Triple{
		TL("s1", "name", "a b"),
		TL("s2", "name", "a  b"),
	})
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(st, WithPlanCache(4))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	r1, _, err := db.Query(nil, `SELECT * WHERE { ?x <name> "a b" . }`)
	if err != nil {
		t.Fatal(err)
	}
	r2, stats, err := db.Query(nil, `SELECT * WHERE { ?x <name> "a  b" . }`)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheHit {
		t.Fatal("literal-differing query served from the cache")
	}
	if r1.Len() != 1 || r2.Len() != 1 || r1.Equal(r2) {
		t.Fatalf("results wrong: %v / %v", r1, r2)
	}
}

// cachedEpochs returns the store epoch of every cached plan.
func (c *planCache) cachedEpochs() []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []uint64
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*planEntry).pq.snap.epoch)
	}
	return out
}

// TestSupersededSnapshotIsNotCached: a read through a handle taken
// before an Apply still answers from the handle's epoch, but its plan
// stays out of the cache, where it would only keep the superseded store
// alive.
func TestSupersededSnapshotIsNotCached(t *testing.T) {
	ctx := context.Background()
	st, err := FromTriples(queries.Fig1aTriples())
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(st, WithPlanCache(4))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	snap := db.Snapshot()
	if _, err := db.Apply(ctx, Delta{Adds: []Triple{T("x", "directed", "y")}}); err != nil {
		t.Fatal(err)
	}
	rows, err := snap.QueryStream(ctx, `SELECT * WHERE { ?d <directed> ?m . }`)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	rows.Close()
	if rows.Err() != nil || n != 4 || rows.Stats().Epoch != 0 {
		t.Fatalf("superseded read: %d rows at epoch %d (err %v), want 4 at 0", n, rows.Stats().Epoch, rows.Err())
	}
	if cs := db.CacheStats(); cs.Size != 0 {
		t.Fatalf("a superseded epoch's plan was cached: %+v", cs)
	}
}

// TestLiveStressServedReads races served-style reads — a Snapshot handle
// per request, read through QueryStream, as the server's local backend
// does — against Apply. Each read answers from its handle's epoch; once
// the readers stop, every cached plan is of the published epoch.
func TestLiveStressServedReads(t *testing.T) {
	ctx := context.Background()
	st, err := FromTriples(queries.Fig1aTriples())
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(st, WithPlanCache(4))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const (
		q       = `SELECT * WHERE { ?d <directed> ?m . }`
		applies = 40
		readers = 4
	)
	var (
		wg    sync.WaitGroup
		stop  atomic.Bool
		reads atomic.Int64
		errc  = make(chan error, readers)
	)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				snap := db.Snapshot()
				rows, err := snap.QueryStream(ctx, q)
				if err != nil {
					errc <- err
					return
				}
				n := 0
				for rows.Next() {
					n++
				}
				rows.Close()
				// Fig. 1(a) has four <directed> triples; apply k adds one.
				if e := snap.Epoch(); rows.Err() != nil || rows.Stats().Epoch != e || n != 4+int(e) {
					errc <- fmt.Errorf("read of epoch %d: %d rows at epoch %d (err %v)", e, n, rows.Stats().Epoch, rows.Err())
					return
				}
				reads.Add(1)
			}
		}()
	}
	for k := 1; k <= applies; k++ {
		if _, err := db.Apply(ctx, Delta{Adds: []Triple{T(fmt.Sprintf("d%d", k), "directed", "m")}}); err != nil {
			t.Fatal(err)
		}
		// Let reads of the new epoch, and of the one it superseded, land.
		for n := reads.Load(); reads.Load() < n+readers && len(errc) == 0; {
			runtime.Gosched()
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	for _, e := range db.cache.cachedEpochs() {
		if e != db.Epoch() {
			t.Fatalf("cached plan of epoch %d outlives the sweep; published epoch is %d", e, db.Epoch())
		}
	}
}
