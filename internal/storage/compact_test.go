package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"dualsim/internal/proptest"
	"dualsim/internal/rdf"
)

// randomTerm draws an object from a pool of k IRIs and k literals.
func randomTerm(r *rand.Rand, k int) rdf.Term {
	if r.Intn(4) == 0 {
		return rdf.NewLiteral(fmt.Sprintf("n%d", r.Intn(k)))
	}
	return rdf.NewIRI(fmt.Sprintf("n%d", r.Intn(k)))
}

// randomTriple draws a triple over a pool of k subjects, 4 predicates
// and 2k objects.
func randomTriple(r *rand.Rand, k int) rdf.Triple {
	return rdf.Triple{S: rdf.NewIRI(fmt.Sprintf("n%d", r.Intn(k))), P: fmt.Sprintf("p%d", r.Intn(4)), O: randomTerm(r, k)}
}

// randomDelta draws one patch of a chain against cur's triples: deletes
// of present triples, every triple of one term (which orphans it unless
// an add uses it again) and absent ones; adds over the pool, over terms
// fresh to the chain, repeated, and re-adds of deleted triples.
func randomDelta(r *rand.Rand, cur *Store, k, step int) (adds, dels []rdf.Triple) {
	have := cur.Triples()
	for i := r.Intn(4); i > 0 && len(have) > 0; i-- {
		dels = append(dels, have[r.Intn(len(have))])
	}
	if len(have) > 0 && r.Intn(2) == 0 {
		victim := have[r.Intn(len(have))].S
		for _, t := range have {
			if t.S == victim || t.O == victim {
				dels = append(dels, t)
			}
		}
	}
	if r.Intn(3) == 0 {
		dels = append(dels, randomTriple(r, k+1)) // absent, or an unseen term
	}
	for i := r.Intn(5); i > 0; i-- {
		adds = append(adds, randomTriple(r, k))
	}
	if r.Intn(2) == 0 {
		fresh := rdf.NewIRI(fmt.Sprintf("fresh%d", step))
		adds = append(adds, rdf.Triple{S: fresh, P: fmt.Sprintf("p%d", r.Intn(5)), O: randomTerm(r, k)})
	}
	if len(adds) > 0 && r.Intn(3) == 0 {
		adds = append(adds, adds[r.Intn(len(adds))]) // a duplicate add
	}
	if len(dels) > 0 && r.Intn(3) == 0 {
		adds = append(adds, dels[r.Intn(len(dels))]) // deleted, then re-added
	}
	return adds, dels
}

// liveTerms returns the keys of the terms st's triples use.
func liveTerms(st *Store) map[string]bool {
	live := make(map[string]bool)
	for _, t := range st.Triples() {
		live[t.S.Key()], live[t.O.Key()] = true, true
	}
	return live
}

// checkCompact compacts st and checks the result against a rebuild of
// st's triples: the same triple set, exactly the live terms, the index
// invariants, the predicates under their ids, every term looked up under
// its new id, the live terms in their old id order, and — when no term
// was dead — st's ids and predicate indexes themselves.
func checkCompact(st *Store) (*Store, error) {
	var before bytes.Buffer
	if err := st.EncodeSnapshot(&before); err != nil {
		return nil, err
	}
	out := st.Compact()
	ref, err := FromTriples(st.Triples())
	if err != nil {
		return nil, err
	}
	got, want := tripleSet(out), tripleSet(ref)
	if len(got) != len(want) || out.NumTriples() != ref.NumTriples() {
		return nil, fmt.Errorf("compacted store holds %d triples (NumTriples %d), the rebuild %d", len(got), out.NumTriples(), ref.NumTriples())
	}
	for k := range want {
		if !got[k] {
			return nil, fmt.Errorf("compacted store lacks %s", k)
		}
	}
	live := liveTerms(st)
	if out.NumNodes() != len(live) {
		return nil, fmt.Errorf("compacted store has %d nodes, %d terms are live", out.NumNodes(), len(live))
	}
	if err := indexInvariants(out); err != nil {
		return nil, fmt.Errorf("compacted store: %w", err)
	}
	if out.NumPreds() != st.NumPreds() {
		return nil, fmt.Errorf("compacted store has %d predicates, the input %d", out.NumPreds(), st.NumPreds())
	}
	for p := range PredID(st.NumPreds()) {
		if id, ok := out.PredIDOf(st.Pred(p)); !ok || id != p || out.Pred(p) != st.Pred(p) {
			return nil, fmt.Errorf("predicate %s moved to %d (%v)", st.Pred(p), id, ok)
		}
	}
	prev := -1
	for id := range NodeID(out.NumNodes()) {
		term := out.Term(id)
		if got, ok := out.TermID(term); !ok || got != id {
			return nil, fmt.Errorf("%v looks up as %d (%v), want %d", term, got, ok, id)
		}
		old, ok := st.TermID(term)
		if !ok || int(old) <= prev {
			return nil, fmt.Errorf("term %d (%v) was %d (%v) in the input, after %d: not the old id order", id, term, old, ok, prev)
		}
		prev = int(old)
	}
	for id := range NodeID(st.NumNodes()) {
		if term := st.Term(id); !live[term.Key()] {
			if got, ok := out.TermID(term); ok {
				return nil, fmt.Errorf("dead term %v looks up as %d", term, got)
			}
		}
	}
	if len(live) == st.NumNodes() {
		if out.d == st.d {
			return nil, fmt.Errorf("the compacted store shares the input's dictionary")
		}
		for p := range st.byPred {
			a, b := &st.byPred[p], &out.byPred[p]
			if a.adj != b.adj || len(a.psoS) > 0 && (&a.psoS[0] != &b.psoS[0] || &a.psoO[0] != &b.psoO[0]) {
				return nil, fmt.Errorf("no term was dead, yet predicate %d's index was laid out again", p)
			}
		}
		if out.empty != st.empty {
			return nil, fmt.Errorf("no term was dead, yet the empty pair was laid out again")
		}
	}
	var after bytes.Buffer
	if err := st.EncodeSnapshot(&after); err != nil || !bytes.Equal(before.Bytes(), after.Bytes()) {
		return nil, fmt.Errorf("Compact changed its receiver (err %v)", err)
	}
	return out, nil
}

// TestPropertyCompactMatchesRebuild drives Compact over random stores
// and random patch chains — deletes that orphan terms, adds that intern
// fresh ones, and patches whose result is dropped, as a failed write
// drops it, leaving interned terms no triple uses — and checks every
// link of the chain against FromTriples of its triples (checkCompact).
// The chain goes on from some compacted stores, so a compacted
// dictionary takes new terms too. Both the shared and the renumbering
// path must have run.
func TestPropertyCompactMatchesRebuild(t *testing.T) {
	var shared, renumbered int
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 3 + r.Intn(30)
		ts := make([]rdf.Triple, r.Intn(60))
		for i := range ts {
			ts[i] = randomTriple(r, k)
		}
		cur, err := FromTriples(ts)
		if err != nil {
			t.Log(err)
			return false
		}
		for step := 0; step < 8; step++ {
			out, err := checkCompact(cur)
			if err != nil {
				t.Logf("seed %d step %d: %v", seed, step, err)
				return false
			}
			if out.NumNodes() == cur.NumNodes() {
				shared++
			} else {
				renumbered++
			}
			if r.Intn(3) == 0 {
				cur = out
			}
			adds, dels := randomDelta(r, cur, k, step)
			if r.Intn(4) == 0 {
				// Dropped: its fresh terms stay interned, unused.
				if _, _, err := cur.Patch([]rdf.Triple{rdf.T(fmt.Sprintf("dropped%d", step), "p0", "n0")}, nil); err != nil {
					t.Log(err)
					return false
				}
			}
			if cur, _, err = cur.Patch(adds, dels); err != nil {
				t.Log(err)
				return false
			}
		}
		return true
	}
	proptest.Check(t, f, 150, regressionSeeds)
	if shared == 0 || renumbered == 0 {
		t.Fatalf("%d compactions took the shared path and %d renumbered: both must run", shared, renumbered)
	}
}

// TestPropertyPatchMatchesBuild: for every predicate, the PSO columns of
// a patched store equal those of a fresh Build of the expected triple
// set under the same dictionary ids, and its adjacency satisfies the
// index invariants. The deltas delete, re-add and repeat pairs, add
// pairs before the first and after the last pair of a run, and name
// predicates and terms the store has never seen; both ends of a run
// must have been reached.
func TestPropertyPatchMatchesBuild(t *testing.T) {
	var first, last int
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 3 + r.Intn(30)
		ts := make([]rdf.Triple, r.Intn(80))
		for i := range ts {
			ts[i] = randomTriple(r, k)
		}
		cur, err := FromTriples(ts)
		if err != nil {
			t.Log(err)
			return false
		}
		for step := 0; step < 6; step++ {
			adds, dels := randomDelta(r, cur, k, step)
			// Pairs at both ends of a run: the first subject with an
			// object below its first, the last subject with one above.
			if p := PredID(r.Intn(cur.NumPreds() + 1)); int(p) < cur.NumPreds() && cur.PredCount(p) > 0 {
				s, o := cur.PSO(p)
				for id := range NodeID(cur.NumNodes()) {
					if id < o[0] {
						adds = append(adds, rdf.Triple{S: cur.Term(s[0]), P: cur.Pred(p), O: cur.Term(id)})
					}
					if id > o[len(o)-1] {
						adds = append(adds, rdf.Triple{S: cur.Term(s[len(s)-1]), P: cur.Pred(p), O: cur.Term(id)})
					}
				}
			}
			next, _, err := cur.Patch(adds, dels)
			if err != nil {
				t.Log(err)
				return false
			}
			ref := layout(next.d, expectedPairs(cur, next, adds, dels))
			if err := indexInvariants(next); err != nil {
				t.Logf("seed %d step %d: %v", seed, step, err)
				return false
			}
			if next.NumTriples() != ref.NumTriples() {
				t.Logf("seed %d step %d: patched store holds %d triples, the build %d", seed, step, next.NumTriples(), ref.NumTriples())
				return false
			}
			for p := range next.byPred {
				got := &next.byPred[p]
				var exp predIndex
				if p < len(ref.byPred) {
					exp = ref.byPred[p]
				}
				if !slices.Equal(got.psoS, exp.psoS) || !slices.Equal(got.psoO, exp.psoO) {
					t.Logf("seed %d step %d: predicate %s is %v/%v, the build %v/%v", seed, step, next.Pred(PredID(p)), got.psoS, got.psoO, exp.psoS, exp.psoO)
					return false
				}
				if p < cur.NumPreds() && len(got.psoS) > 0 && len(cur.byPred[p].psoS) > 0 {
					ns, no := got.psoS, got.psoO
					ps, po := cur.byPred[p].psoS, cur.byPred[p].psoO
					if comparePairs(pair{ns[0], no[0]}, pair{ps[0], po[0]}) < 0 {
						first++
					}
					if comparePairs(pair{ns[len(ns)-1], no[len(no)-1]}, pair{ps[len(ps)-1], po[len(po)-1]}) > 0 {
						last++
					}
				}
			}
			cur = next
		}
		return true
	}
	proptest.Check(t, f, 150, regressionSeeds)
	if first == 0 || last == 0 {
		t.Fatalf("%d patches added before a run's first pair and %d after its last: both must occur", first, last)
	}
}

// expectedPairs is cur's triple set minus dels plus adds, as next's ids
// grouped by predicate.
func expectedPairs(cur, next *Store, adds, dels []rdf.Triple) [][]pair {
	key := func(t rdf.Triple) string { return t.S.Key() + "|" + t.P + "|" + t.O.Key() }
	gone := make(map[string]bool)
	for _, t := range dels {
		gone[key(t)] = true
	}
	out := make([][]pair, next.NumPreds())
	add := func(t rdf.Triple) {
		s, _ := next.TermID(t.S)
		p, _ := next.PredIDOf(t.P)
		o, _ := next.TermID(t.O)
		out[p] = append(out[p], pair{a: s, b: o})
	}
	for _, t := range cur.Triples() {
		if !gone[key(t)] {
			add(t)
		}
	}
	for _, t := range adds {
		add(t)
	}
	return out
}

// TestCompactConcurrentReads compacts on both paths while readers of the
// pre-compaction snapshot decode, look up, walk and encode it: a chain
// of compactions that find no dead term (each result shares every
// predicate index with the snapshot before it, so readers of two
// snapshots read the same columns), each followed by deletes that
// orphan a term and a renumbering compaction. A patch of the compacted
// store's lineage interns into its dictionary during each compaction. The pinned snapshot must read
// exactly as before. Run it under -race.
func TestCompactConcurrentReads(t *testing.T) {
	base := mustStore(t, fig1a())
	var want bytes.Buffer
	if err := base.EncodeSnapshot(&want); err != nil {
		t.Fatal(err)
	}
	terms := make([]rdf.Term, base.NumNodes())
	for id := range terms {
		terms[id] = base.Term(NodeID(id))
	}
	read := func(st *Store, terms []rdf.Term, want []byte) error {
		for id, term := range terms {
			if got := st.Term(NodeID(id)); got != term {
				return fmt.Errorf("term %d reads %v, want %v", id, got, term)
			}
			if got, ok := st.TermID(term); !ok || got != NodeID(id) {
				return fmt.Errorf("%v looks up as %d (%v), want %d", term, got, ok, id)
			}
		}
		n := 0
		for p := range PredID(st.NumPreds()) {
			subjects, objects := st.PSO(p)
			for i, s := range subjects {
				if !slices.Contains(st.Objects(p, s), objects[i]) || !slices.Contains(st.Subjects(p, objects[i]), s) {
					return fmt.Errorf("(%d, %d, %d) is not in its rows", s, p, objects[i])
				}
				n++
			}
		}
		if n != st.NumTriples() {
			return fmt.Errorf("the runs hold %d triples, NumTriples %d", n, st.NumTriples())
		}
		var got bytes.Buffer
		if err := st.EncodeSnapshot(&got); err != nil || !bytes.Equal(got.Bytes(), want) {
			return fmt.Errorf("the snapshot encodes differently while compactions run (err %v)", err)
		}
		return nil
	}

	const rounds = 20
	var done atomic.Bool
	var wg sync.WaitGroup
	// Room for one error from every goroutine that sends: the two base
	// readers, the checker of the published stores and the two patches
	// aside per round. No send ever waits.
	errs := make(chan error, 3+2*rounds)
	// Room for every store the rounds publish, so the writer never waits
	// for the checker.
	published := make(chan *Store, 2*rounds)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; !done.Load() || round == 0; round++ {
				if err := read(base, terms, want.Bytes()); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() { // reads each compacted store while the next is built
		defer wg.Done()
		for st := range published {
			var buf bytes.Buffer
			if err := st.EncodeSnapshot(&buf); err != nil {
				errs <- err
				return
			}
			own := make([]rdf.Term, st.NumNodes())
			for id := range own {
				own[id] = st.Term(NodeID(id))
			}
			if err := read(st, own, buf.Bytes()); err != nil {
				errs <- err
				return
			}
		}
	}()

	// patchAside patches st's lineage with a fresh term while fn runs.
	patchAside := func(st *Store, i int, fn func()) {
		var aside sync.WaitGroup
		aside.Add(1)
		go func() {
			defer aside.Done()
			if _, _, err := st.Patch([]rdf.Triple{rdf.T(fmt.Sprintf("aside%d", i), "directed", "Heat")}, nil); err != nil {
				errs <- err
			}
		}()
		fn()
		aside.Wait()
	}
	chain := func() error {
		cur := base
		for i := 0; i < rounds; i++ {
			var shared, renumbered *Store
			patchAside(cur, i, func() { shared = cur.Compact() })
			if shared.NumNodes() != cur.NumNodes() || &shared.byPred[0] != &cur.byPred[0] {
				return fmt.Errorf("round %d: a compaction without dead terms did not share the indexes", i)
			}
			published <- shared
			victim := shared.Term(NodeID(i % shared.NumNodes()))
			var dels []rdf.Triple
			for _, tr := range shared.Triples() {
				if tr.S == victim || tr.O == victim {
					dels = append(dels, tr)
				}
			}
			orphaned, _, err := shared.Patch(nil, dels)
			if err != nil {
				return err
			}
			patchAside(shared, i, func() { renumbered = orphaned.Compact() })
			if renumbered.NumNodes() >= orphaned.NumNodes() {
				return fmt.Errorf("round %d: deleting every triple of %v left %d of %d nodes", i, victim, renumbered.NumNodes(), orphaned.NumNodes())
			}
			published <- renumbered
			// Put the victim's triples back so the chain does not run dry.
			if cur, _, err = renumbered.Patch(dels, nil); err != nil {
				return err
			}
		}
		return nil
	}
	if err := chain(); err != nil {
		t.Error(err)
	}
	close(published)
	done.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
