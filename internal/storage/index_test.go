package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dualsim/internal/rdf"
)

// sortedIndex is the construction newPredIndex replaced — swap every
// pair, comparison-sort, count first components — kept here as the
// oracle of the distribution sort.
func sortedIndex(pso []pair) predIndex {
	var ix predIndex
	swapped := make([]pair, len(pso))
	for i, e := range pso {
		ix.psoS, ix.psoO = append(ix.psoS, e.a), append(ix.psoO, e.b)
		swapped[i] = pair{a: e.b, b: e.a}
	}
	sortPairs(swapped)
	for _, e := range swapped {
		ix.posO, ix.posS = append(ix.posO, e.a), append(ix.posS, e.b)
	}
	ix.distinctS, ix.distinctO = countRuns(ix.psoS), countRuns(ix.posO)
	return ix
}

func sameIndex(a, b predIndex) bool {
	return slices.Equal(a.psoS, b.psoS) && slices.Equal(a.psoO, b.psoO) &&
		slices.Equal(a.posO, b.posO) && slices.Equal(a.posS, b.posS) &&
		a.distinctS == b.distinctS && a.distinctO == b.distinctO
}

// TestNewPredIndexMatchesSort drives the one index constructor against
// the old sort-based construction on random pair sets: empty, one pair,
// the sizes around the insertion-sort cutoff, runs needing one, two and
// three distribution passes, heavy duplication of object ids, and ids up
// to the top of a large node universe.
func TestNewPredIndexMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	sizes := []int{0, 1, 2, posInsertionMax - 1, posInsertionMax, posInsertionMax + 1, 300, 5000, 70000}
	universes := []int{1, 7, 1000, 1 << 20, 1<<32 - 1}
	for _, n := range sizes {
		for _, nodes := range universes {
			for _, objects := range []int{nodes, 3} { // 3: almost every object id repeats
				set := make(map[pair]bool, n)
				for tries := 0; len(set) < n && tries < 20*n+20; tries++ {
					o := NodeID(r.Intn(min(objects, nodes)))
					if objects == nodes && r.Intn(4) == 0 {
						o = NodeID(nodes - 1 - r.Intn(min(nodes, 4))) // the top of the universe
					}
					set[pair{a: NodeID(r.Intn(nodes)), b: o}] = true
				}
				pso := make([]pair, 0, len(set))
				for e := range set {
					pso = append(pso, e)
				}
				pso = dedupSorted(pso)
				got, want := newPredIndexFromPairs(pso), sortedIndex(pso)
				if !sameIndex(got, want) {
					t.Fatalf("n=%d nodes=%d objects=%d: index differs from the sort-based construction\n got %+v\nwant %+v",
						len(pso), nodes, objects, got, want)
				}
			}
		}
	}
}

// indexInvariants checks what every built store must hold, whatever
// produced it: each predicate's PSO run strictly sorted with ids inside
// the node universe, its POS order and counts equal to the sort-based
// construction over that run, and NumTriples the sum of the runs.
func indexInvariants(st *Store) error {
	n := 0
	for p := range st.byPred {
		ix := st.byPred[p]
		pso := make([]pair, len(ix.psoS))
		for i := range pso {
			pso[i] = pair{a: ix.psoS[i], b: ix.psoO[i]}
			if int(pso[i].a) >= st.NumNodes() || int(pso[i].b) >= st.NumNodes() {
				return fmt.Errorf("predicate %d pair %d outside the %d-node universe", p, i, st.NumNodes())
			}
			if i > 0 && !(pso[i-1].a < pso[i].a || pso[i-1].a == pso[i].a && pso[i-1].b < pso[i].b) {
				return fmt.Errorf("predicate %d PSO run not strictly sorted at %d", p, i)
			}
		}
		if !sameIndex(ix, sortedIndex(pso)) {
			return fmt.Errorf("predicate %d index differs from the sort-based construction", p)
		}
		n += len(pso)
	}
	if len(st.byPred) != st.NumPreds() || n != st.NumTriples() {
		return fmt.Errorf("%d indexes holding %d triples for %d predicates, NumTriples %d", len(st.byPred), n, st.NumPreds(), st.NumTriples())
	}
	return nil
}

// checkIndexes verifies the index invariants of st and its triple set
// against want.
func checkIndexes(t *testing.T, what string, st *Store, want []rdf.Triple) {
	t.Helper()
	if err := indexInvariants(st); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	ref, err := FromTriples(want)
	if err != nil {
		t.Fatal(err)
	}
	got, exp := tripleSet(st), tripleSet(ref)
	if len(got) != len(exp) || st.NumTriples() != ref.NumTriples() {
		t.Fatalf("%s: %d triples (NumTriples %d), FromTriples has %d", what, len(got), st.NumTriples(), ref.NumTriples())
	}
	for k := range exp {
		if !got[k] {
			t.Fatalf("%s: triple %s missing", what, k)
		}
	}
	// Same statistics as a store built from scratch, predicate by predicate.
	for p := 0; p < ref.NumPreds(); p++ {
		sp, ok := st.PredIDOf(ref.Pred(PredID(p)))
		if !ok {
			t.Fatalf("%s: predicate %s unknown", what, ref.Pred(PredID(p)))
		}
		if st.PredCount(sp) != ref.PredCount(PredID(p)) ||
			st.DistinctSubjects(sp) != ref.DistinctSubjects(PredID(p)) ||
			st.DistinctObjects(sp) != ref.DistinctObjects(PredID(p)) {
			t.Fatalf("%s: predicate %s statistics differ from FromTriples", what, ref.Pred(PredID(p)))
		}
	}
}

// TestDerivedStoresUseTheConstructor: RestrictByMask, Patch and
// a snapshot round-trip each produce indexes equal to FromTriples of the
// same triples.
func TestDerivedStoresUseTheConstructor(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	var all []rdf.Triple
	for i := 0; i < 3000; i++ {
		all = append(all, rdf.T(fmt.Sprintf("n%d", r.Intn(400)), fmt.Sprintf("p%d", r.Intn(4)), fmt.Sprintf("n%d", r.Intn(400))))
	}
	st := mustStore(t, all)
	checkIndexes(t, "Build", st, all)

	keep := func(tr rdf.Triple) bool { return (len(tr.S.Value)+len(tr.O.Value))%2 == 0 }
	var kept []rdf.Triple
	for _, tr := range all {
		if keep(tr) {
			kept = append(kept, tr)
		}
	}
	masks := maskWhere(st, func(s NodeID, p PredID, o NodeID) bool {
		return keep(rdf.Triple{S: st.Term(s), P: st.Pred(p), O: st.Term(o)})
	})
	checkIndexes(t, "RestrictByMask", st.RestrictByMask(masks), kept)

	masks[1] = nil // a nil mask drops the predicate
	var masked []rdf.Triple
	for _, tr := range kept {
		if tr.P != st.Pred(1) {
			masked = append(masked, tr)
		}
	}
	checkIndexes(t, "RestrictByMask (nil mask)", st.RestrictByMask(masks), masked)

	adds := []rdf.Triple{rdf.T("n1", "p0", "fresh"), rdf.T("fresh", "p9", "n2"), rdf.T("n3", "p2", "n3")}
	dels := all[:200]
	patched, _, err := st.Patch(adds, dels)
	if err != nil {
		t.Fatal(err)
	}
	gone := make(map[string]bool)
	for _, tr := range dels {
		gone[tr.String()] = true
	}
	wantPatched := slices.Clone(adds)
	for _, tr := range all {
		if !gone[tr.String()] {
			wantPatched = append(wantPatched, tr)
		}
	}
	checkIndexes(t, "Patch", patched, wantPatched)

	var buf bytes.Buffer
	if err := patched.EncodeSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	checkIndexes(t, "snapshot round-trip", decoded, wantPatched)
}

// TestPostingListsReadInPlace: Objects, Subjects and HasTriple allocate
// nothing — the lists alias the index (capacity-limited, so an append
// cannot reach the neighbouring run) — and a hub's run, longer than the
// forward scan, is still returned whole.
func TestPostingListsReadInPlace(t *testing.T) {
	var ts []rdf.Triple
	for i := 0; i < 200; i++ {
		ts = append(ts, rdf.T("hub", "p", fmt.Sprintf("o%d", i)), rdf.T(fmt.Sprintf("s%d", i), "p", "sink"))
	}
	st := mustStore(t, ts)
	p := mustPred(t, st, "p")
	hub, _ := st.TermID(rdf.NewIRI("hub"))
	sink, _ := st.TermID(rdf.NewIRI("sink"))
	leaf, _ := st.TermID(rdf.NewIRI("s7"))
	if n := len(st.Objects(p, hub)); n != 200 {
		t.Fatalf("hub has %d objects, want 200", n)
	}
	if n := len(st.Subjects(p, sink)); n != 200 {
		t.Fatalf("sink has %d subjects, want 200", n)
	}
	if l := st.Objects(p, leaf); len(l) != 1 || cap(l) != 1 || l[0] != sink {
		t.Fatalf("Objects(s7) = %v (cap %d), want [sink] with cap 1", l, cap(l))
	}
	if l := st.Objects(p, sink); len(l) != 0 {
		t.Fatalf("Objects(sink) = %v, want none", l)
	}
	var n int
	var ok bool
	allocs := testing.AllocsPerRun(100, func() {
		n += len(st.Objects(p, hub)) + len(st.Objects(p, leaf)) + len(st.Subjects(p, sink)) + len(st.Subjects(p, hub))
		ok = st.HasTriple(hub, p, sink) || st.HasTriple(leaf, p, sink)
	})
	if allocs != 0 || !ok || n == 0 {
		t.Fatalf("posting-list reads cost %.1f allocations (ok=%v, n=%d), want 0", allocs, ok, n)
	}
}
