package dualsim

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"dualsim/internal/queries"
)

// TestNormalizeQuery: the cache key collapses only whitespace the lexer
// ignores — quoted literals and IRIs keep theirs, comments drop but
// still separate tokens. Two texts share a key iff they lex identically.
func TestNormalizeQuery(t *testing.T) {
	same, distinct := normalizeTable()
	for _, c := range same {
		if normalizeQuery(c[0]) != normalizeQuery(c[1]) {
			t.Errorf("keys differ:\n  %q -> %q\n  %q -> %q", c[0], normalizeQuery(c[0]), c[1], normalizeQuery(c[1]))
		}
	}
	for _, c := range distinct {
		if normalizeQuery(c[0]) == normalizeQuery(c[1]) {
			t.Errorf("distinct queries collide on key %q:\n  %q\n  %q", normalizeQuery(c[0]), c[0], c[1])
		}
	}
	// Unterminated trailing regions must not panic or loop.
	for _, src := range []string{`{ "unterminated`, `{ <unterminated`, `x \`, "#only a comment", ""} {
		_ = normalizeQuery(src)
	}
}

// normalizeTable is TestNormalizeQuery's table: pairs that must share a
// key, and pairs that must not.
func normalizeTable() (same, distinct [][2]string) {
	same = [][2]string{
		{"SELECT * WHERE { ?a <p> ?b . }", "  SELECT\n*\tWHERE  {\n?a <p> ?b\n.\n} "},
		{"SELECT * WHERE { ?a <p> ?b . }", "SELECT * WHERE { # comment\n ?a <p> ?b . }"},
		{"a b", "a#x\nb"}, // a comment separates tokens like whitespace
	}
	distinct = [][2]string{
		// Whitespace inside a literal is significant.
		{`{ ?x <name> "a b" . }`, `{ ?x <name> "a  b" . }`},
		{`{ ?x <name> "a b" . }`, `{ ?x <name> 'a  b' . }`},
		// An escaped quote does not close the literal.
		{`{ ?x <name> "a\" b" . }`, `{ ?x <name> "a\"  b" . }`},
		// '#' inside an IRI is not a comment; IRI whitespace is kept.
		{`{ ?x <http://e/p#a> ?y . }`, `{ ?x <http://e/p#b> ?y . }`},
		{`{ ?x <p a> ?y . }`, `{ ?x <p  a> ?y . }`},
		// A commented-out pattern is not an active one.
		{"{ ?a <p> ?b . ?c <q> ?d . }", "{ ?a <p> ?b . # ?c <q> ?d .\n}"},
	}
	return same, distinct
}

// TestPlanKeyMatchesNormalizedText: the plan-cache key hashes the
// normalized token stream in place, and a lookup compares it against
// the stored text in place. Over random whitespace, comment, IRI and
// literal perturbations of TestNormalizeQuery's texts, two texts must
// share a key exactly when their normalizeQuery outputs are equal, and
// the in-place comparison must agree with comparing those outputs.
func TestPlanKeyMatchesNormalizedText(t *testing.T) {
	same, distinct := normalizeTable()
	// Each edit inserts at a random position, so it lands in whitespace,
	// inside a token, a comment, an IRI or a literal; the last two open
	// or close such regions.
	edits := []string{" ", "\t", "\n  ", "# c\n", "#", " # x", "<", ">", "<i j>", `"`, "'", `\`, `" s "`, "x", "."}
	r := rand.New(rand.NewSource(1))
	var texts []string
	for _, pair := range append(same, distinct...) {
		for _, src := range pair {
			texts = append(texts, src)
			for range 40 {
				p := src
				for range 1 + r.Intn(3) {
					i := r.Intn(len(p) + 1)
					p = p[:i] + edits[r.Intn(len(edits))] + p[i:]
				}
				texts = append(texts, p)
			}
		}
	}
	c := newPlanCache(1)
	keys := make([]planKey, len(texts))
	norms := make([]string, len(texts))
	for i, src := range texts {
		keys[i], norms[i] = c.key(0, src), normalizeQuery(src)
	}
	shared := 0
	for i := range texts {
		for j := range texts {
			equal := norms[i] == norms[j]
			if (keys[i] == keys[j]) != equal {
				t.Fatalf("key equality %v, normalized equality %v:\n  %q -> %q\n  %q -> %q",
					keys[i] == keys[j], equal, texts[i], norms[i], texts[j], norms[j])
			}
			if sameNormalized(texts[i], norms[j]) != equal {
				t.Fatalf("sameNormalized(%q, %q) = %v, want %v", texts[i], norms[j], !equal, equal)
			}
			if equal && i != j {
				shared++
			}
		}
	}
	if shared == 0 {
		t.Fatal("no two perturbed texts share a key: the property is vacuous")
	}
	if c.key(0, texts[0]) == c.key(1, texts[0]) {
		t.Fatal("one text under two epochs shares a key")
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
