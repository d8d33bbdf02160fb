package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"dualsim/internal/proptest"
	"dualsim/internal/rdf"
)

// overlaps reports whether the backing arrays of a and b, up to their
// capacities, share memory.
func overlaps[T any](a, b []T) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	size := unsafe.Sizeof(a[0])
	pa, pb := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return pa < pb+uintptr(cap(b))*size && pb < pa+uintptr(cap(a))*size
}

// checkSlice cuts st down to preds and checks the cut against the
// decoded EncodeSlice body, id for id, against FromTriples of st's
// triples of those predicates, and for arrays shared with st.
func checkSlice(st *Store, preds []PredID) (*Store, error) {
	out := st.Slice(preds)
	var body bytes.Buffer
	if err := st.EncodeSlice(&body, preds); err != nil {
		return nil, err
	}
	want, err := DecodeSnapshot(body.Bytes())
	if err != nil {
		return nil, err
	}
	if out.NumNodes() != want.NumNodes() || out.NumPreds() != want.NumPreds() || out.NumTriples() != want.NumTriples() {
		return nil, fmt.Errorf("the cut has %d nodes, %d predicates and %d triples, the decoded slice %d, %d and %d",
			out.NumNodes(), out.NumPreds(), out.NumTriples(), want.NumNodes(), want.NumPreds(), want.NumTriples())
	}
	for id := range NodeID(out.NumNodes()) {
		term := out.Term(id)
		if term != want.Term(id) {
			return nil, fmt.Errorf("term %d is %v, in the decoded slice %v", id, term, want.Term(id))
		}
		if got, ok := out.TermID(term); !ok || got != id {
			return nil, fmt.Errorf("%v looks up as %d (%v), want %d", term, got, ok, id)
		}
	}
	for p := range PredID(out.NumPreds()) {
		if out.Pred(p) != want.Pred(p) {
			return nil, fmt.Errorf("predicate %d is %s, in the decoded slice %s", p, out.Pred(p), want.Pred(p))
		}
		if id, ok := out.PredIDOf(out.Pred(p)); !ok || id != p {
			return nil, fmt.Errorf("predicate %s looks up as %d (%v), want %d", out.Pred(p), id, ok, p)
		}
		if !reflect.DeepEqual(out.byPred[p], want.byPred[p]) {
			return nil, fmt.Errorf("predicate %s's columns or directories differ from the decoded slice's", out.Pred(p))
		}
	}
	if !reflect.DeepEqual(out.empty, want.empty) {
		return nil, fmt.Errorf("the empty pair differs from the decoded slice's")
	}
	if err := indexInvariants(out); err != nil {
		return nil, fmt.Errorf("cut: %w", err)
	}

	keep := make(map[string]bool)
	for _, p := range preds {
		keep[st.Pred(p)] = true
	}
	var kept []rdf.Triple
	for _, tr := range st.Triples() {
		if keep[tr.P] {
			kept = append(kept, tr)
		}
	}
	ref, err := FromTriples(kept)
	if err != nil {
		return nil, err
	}
	if got, exp := tripleSet(out), tripleSet(ref); !reflect.DeepEqual(got, exp) {
		return nil, fmt.Errorf("the cut holds %d triples, FromTriples of the kept ones %d", len(got), len(exp))
	}

	if out.d == st.d || overlaps(out.terms.arena, st.terms.arena) || overlaps(out.terms.offsets, st.terms.offsets) || overlaps(out.terms.kinds, st.terms.kinds) {
		return nil, fmt.Errorf("the cut shares the source's dictionary")
	}
	for p := range out.byPred {
		for q := range st.byPred {
			for _, c := range [][]NodeID{out.byPred[p].psoS, out.byPred[p].psoO} {
				if overlaps(c, st.byPred[q].psoS) || overlaps(c, st.byPred[q].psoO) {
					return nil, fmt.Errorf("the cut's predicate %d shares a column of the source's predicate %d", p, q)
				}
			}
		}
	}
	return out, nil
}

// TestPropertySliceMatchesEncodeSlice cuts random stores down to random
// predicate subsets — listed in any order, some twice — and checks each
// cut (checkSlice). The stores are patched along random chains, whose
// deletes orphan terms, and some links delete every triple of one
// predicate, so cuts of stores with dead terms and of empty predicates
// must both have run.
func TestPropertySliceMatchesEncodeSlice(t *testing.T) {
	var dead, empty int
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
		for step := 0; step < 6; step++ {
			var preds []PredID
			for p := range PredID(cur.NumPreds()) {
				for n := r.Intn(3); n > 0 && r.Intn(3) > 0; n-- {
					preds = append(preds, p)
				}
			}
			r.Shuffle(len(preds), func(i, j int) { preds[i], preds[j] = preds[j], preds[i] })
			if _, err := checkSlice(cur, preds); err != nil {
				t.Logf("seed %d step %d, predicates %v: %v", seed, step, preds, err)
				return false
			}
			if len(liveTerms(cur)) < cur.NumNodes() {
				dead++
			}
			for _, p := range preds {
				if cur.PredCount(p) == 0 {
					empty++
					break
				}
			}
			adds, dels := randomDelta(r, cur, k, step)
			if p := PredID(r.Intn(cur.NumPreds() + 1)); r.Intn(3) == 0 && int(p) < cur.NumPreds() {
				for _, tr := range cur.Triples() {
					if tr.P == cur.Pred(p) {
						dels = append(dels, tr)
					}
				}
				adds = slices.DeleteFunc(adds, func(tr rdf.Triple) bool { return tr.P == cur.Pred(p) })
			}
			if cur, _, err = cur.Patch(adds, dels); err != nil {
				t.Log(err)
				return false
			}
		}
		return true
	}
	proptest.Check(t, f, 150, regressionSeeds)
	if dead == 0 || empty == 0 {
		t.Fatalf("%d cuts of stores with dead terms and %d of an empty predicate: both must run", dead, empty)
	}
}

// TestSliceConcurrentPatch cuts a store while patches of its lineage
// intern fresh terms into the shared dictionary, so the arena, the
// offset and kind columns and the id table grow and move under the
// cut's reads. Every cut must encode like the one taken before the
// patches began, and so must that first cut once they are done. Run it
// under -race.
func TestSliceConcurrentPatch(t *testing.T) {
	base := mustStore(t, fig1a())
	preds := []PredID{mustPred(t, base, "directed"), mustPred(t, base, "born_in"), mustPred(t, base, "population")}
	first := base.Slice(preds)
	var want bytes.Buffer
	if err := first.EncodeSnapshot(&want); err != nil {
		t.Fatal(err)
	}
	const patches = 200
	errs := make(chan error, 2) // each of the two goroutines sends at most once
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cur := base
		for i := 0; i < patches; i++ {
			s := fmt.Sprintf("new%d", i)
			next, _, err := cur.Patch([]rdf.Triple{rdf.T(s, "directed", fmt.Sprintf("film%d", i)), rdf.TL(s, "population", fmt.Sprint(i))}, nil)
			if err != nil {
				errs <- err
				return
			}
			if i%2 == 0 {
				cur = next // the chain goes on, and the other half patch the same link again
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < patches; i++ {
			var got bytes.Buffer
			if err := base.Slice(preds).EncodeSnapshot(&got); err != nil || !bytes.Equal(got.Bytes(), want.Bytes()) {
				errs <- fmt.Errorf("cut %d encodes differently while patches intern (err %v)", i, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	var again bytes.Buffer
	if err := first.EncodeSnapshot(&again); err != nil || !bytes.Equal(again.Bytes(), want.Bytes()) {
		t.Errorf("the first cut changed under the patches (err %v)", err)
	}
}
