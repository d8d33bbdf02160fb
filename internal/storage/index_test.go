package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dualsim/internal/bitmat"
	"dualsim/internal/rdf"
)

// swappedRun is the POS order the distribution sort replaced — swap every
// pair of a PSO run, comparison-sort — kept as the oracle of the sort and
// of B's rows.
func swappedRun(pso []pair) []pair {
	swapped := make([]pair, len(pso))
	for i, e := range pso {
		swapped[i] = pair{a: e.b, b: e.a}
	}
	sortPairs(swapped)
	return swapped
}

// rowsMatch checks one matrix over an n-node universe against a sorted,
// deduplicated run of its cells (row, column): every row holds exactly
// the run's cells of that row, its summary bit is set iff it holds any,
// and the non-empty rows' spans tile the column ids in row order — every
// offset inside the column, none decreasing.
func rowsMatch(m *bitmat.CSR, n int, run []pair) error {
	if m.Dim() != n || m.NNZ() != len(run) || m.NonEmptyRows().Len() != n {
		return fmt.Errorf("dim %d holding %d cells, want %d holding %d", m.Dim(), m.NNZ(), n, len(run))
	}
	if len(run) == 0 { // no row to read: the summary alone says so
		if m.NonEmptyRowCount() != 0 || !m.NonEmptyRows().IsEmpty() {
			return fmt.Errorf("an empty matrix has non-empty rows %v", m.NonEmptyRows())
		}
		return nil
	}
	rows, i := 0, 0
	for id := 0; id < n; id++ {
		j := i
		for j < len(run) && run[j].a == NodeID(id) {
			j++
		}
		row := m.Row(id)
		if len(row) != j-i || m.NonEmptyRows().Get(id) != (j > i) {
			return fmt.Errorf("row %d holds %d cells (summary bit %v), want %d", id, len(row), m.NonEmptyRows().Get(id), j-i)
		}
		for k, c := range row {
			if c != run[i+k].b {
				return fmt.Errorf("row %d is %v, want the run's cells from position %d", id, row, i)
			}
		}
		if lo, hi := m.Span(id); j > i && (lo != i || hi != j) {
			return fmt.Errorf("row %d spans [%d, %d), want [%d, %d)", id, lo, hi, i, j)
		}
		if j > i {
			rows++
		}
		i = j
	}
	if i != len(run) || rows != m.NonEmptyRowCount() {
		return fmt.Errorf("%d of %d cells in rows below %d; %d non-empty rows counted as %d", i, len(run), n, rows, m.NonEmptyRowCount())
	}
	return nil
}

// indexMatches checks a predicate's adjacency against the sort-based
// construction over its PSO run: F against the run, B against the
// swapped run.
func indexMatches(m bitmat.Pair, n int, pso []pair) error {
	if err := rowsMatch(m.F, n, pso); err != nil {
		return fmt.Errorf("F: %w", err)
	}
	if err := rowsMatch(m.B, n, swappedRun(pso)); err != nil {
		return fmt.Errorf("B: %w", err)
	}
	return nil
}

// TestNewPredIndexMatchesSort drives the one index constructor against
// the sort-based construction on random pair sets: empty, one pair, the
// sizes around the insertion-sort cutoff, runs needing one, two and three
// distribution passes, and heavy duplication of object ids. Universes of
// up to 2^20 nodes build the whole index; at the top of the 32-bit id
// space, where no directory fits, the POS sort is checked alone.
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
				if nodes > 1<<20 {
					s, o := make([]NodeID, len(pso)), make([]NodeID, len(pso))
					for i, e := range pso {
						s[i], o[i] = e.a, e.b
					}
					posO, posS := make([]NodeID, len(pso)), make([]NodeID, len(pso))
					sortByObject(s, o, posO, posS)
					for i, e := range swappedRun(pso) {
						if posO[i] != e.a || posS[i] != e.b {
							t.Fatalf("n=%d nodes=%d objects=%d: POS position %d is (%d, %d), want (%d, %d)",
								len(pso), nodes, objects, i, posO[i], posS[i], e.a, e.b)
						}
					}
					continue
				}
				m := newPredIndexFromPairs(nodes, pso).adj
				if m.F == nil {
					m = bitmat.EmptyPair(nodes)
				}
				if err := indexMatches(m, nodes, pso); err != nil {
					t.Fatalf("n=%d nodes=%d objects=%d: %v", len(pso), nodes, objects, err)
				}
			}
		}
	}
}

// indexInvariants checks what every built store must hold, whatever
// produced it: each predicate's PSO run strictly sorted with ids inside
// the node universe; its adjacency equal to the sort-based construction
// over that run — rows of F and B for every id below NumNodes, summary
// bits, offsets — with F's column ids the PSO object column itself; and
// NumTriples the sum of the runs.
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
		m := st.Matrices(PredID(p))
		if err := indexMatches(m, st.NumNodes(), pso); err != nil {
			return fmt.Errorf("predicate %d: %w", p, err)
		}
		if len(pso) > 0 {
			s := int(pso[0].a)
			if lo, _ := m.F.Span(s); &m.F.Row(s)[0] != &ix.psoO[lo] {
				return fmt.Errorf("predicate %d: F's rows are not read from the PSO object column", p)
			}
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
	decoded, err := DecodeSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	checkIndexes(t, "snapshot round-trip", decoded, wantPatched)
}

// TestPostingListsReadInPlace: Objects, Subjects and HasTriple allocate
// nothing — the lists alias the index (capacity-limited, so an append
// cannot reach the neighbouring run) — and a hub's run is returned whole.
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
