// Package storage implements the in-memory graph database the rest of the
// system runs on: a dictionary-encoded triple store with per-predicate
// sorted indexes (PSO and POS order), per-predicate statistics for join
// ordering, and lazily built per-predicate adjacency bit-matrix pairs for
// the SOI solver.
//
// A Store is the concrete realization of the paper's graph database
// DB = (O_DB, Σ, E_DB): the node universe O_DB contains every subject and
// object term, the alphabet Σ is the predicate set, and E_DB is the triple
// relation.
//
// Index layout (index.go): each predicate holds its triples twice, in PSO
// and in POS order, each order as two parallel id columns — 16 bytes per
// triple in all. A lookup is a binary search over one dense key column;
// the posting list it finds is a contiguous run of the other column,
// which Objects and Subjects return as a read-only sub-slice (no copy).
// Every index — Build, Restrict, RestrictByMask, Patch, the snapshot
// decoder — is laid out by the one constructor newPredIndex, which takes
// the sorted, deduplicated PSO run and derives the POS order with a
// stable distribution pass on the object id, so building a per-query
// pruned store is linear in what it keeps.
//
// The serving path does not build that pruned store: it reads this one
// through a Filter (filter.go) and takes its neighbour lists from
// Matrices' cached rows. RestrictByMask remains for the paper's tables,
// the CLI's dump and the oracles.
package storage

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"dualsim/internal/bitmat"
	"dualsim/internal/bitvec"
	"dualsim/internal/rdf"
)

// NodeID indexes the node universe O_DB (subjects and objects).
type NodeID = uint32

// PredID indexes the predicate alphabet Σ.
type PredID = uint32

// pair is one (subject, object) edge of a predicate — the form triples
// are staged, sorted and deduplicated in before newPredIndex lays them out
// as columns.
type pair struct{ a, b NodeID }

// dict is the shared, append-only term and predicate dictionary of a
// store lineage. Snapshots derived from one another (Build, Restrict,
// Patch) all point at the same dict, so a node or predicate id decodes
// to the same term in every snapshot; each snapshot additionally records
// how much of the dictionary it can see, so terms interned by a later
// patch are invisible to (and unreachable from) earlier snapshots.
//
// Interning takes the write lock; lookups take the read lock. Slice
// elements, once appended, are never mutated, so snapshots may keep
// lock-free prefix views of terms and preds.
//
// Terms are keyed by Value in one map per rdf.Kind, so a key shares its
// bytes with terms[id].Value and neither interning nor lookup builds a
// string.
type dict struct {
	mu     sync.RWMutex
	terms  []rdf.Term
	iris   map[string]NodeID
	lits   map[string]NodeID
	preds  []string
	predID map[string]PredID
}

func newDict() *dict {
	return &dict{
		iris:   make(map[string]NodeID),
		lits:   make(map[string]NodeID),
		predID: make(map[string]PredID),
	}
}

// termIDs returns the id map of one node universe.
func (d *dict) termIDs(k rdf.Kind) map[string]NodeID {
	if k == rdf.IRI {
		return d.iris
	}
	return d.lits
}

// intern, internTerm and internPred require d.mu held for writing: once
// per staged batch, once per patched triple.
func (d *dict) intern(t rdf.Triple) tripleIDs {
	return tripleIDs{s: d.internTerm(t.S), p: d.internPred(t.P), o: d.internTerm(t.O)}
}

func (d *dict) internTerm(t rdf.Term) NodeID {
	ids := d.termIDs(t.Kind)
	if id, ok := ids[t.Value]; ok {
		return id
	}
	id := NodeID(len(d.terms))
	d.terms = append(d.terms, t)
	ids[t.Value] = id
	return id
}

func (d *dict) internPred(p string) PredID {
	if id, ok := d.predID[p]; ok {
		return id
	}
	id := PredID(len(d.preds))
	d.preds = append(d.preds, p)
	d.predID[p] = id
	return id
}

func (d *dict) lookupTerm(t rdf.Term) (NodeID, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	id, ok := d.termIDs(t.Kind)[t.Value]
	return id, ok
}

func (d *dict) lookupPred(p string) (PredID, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	id, ok := d.predID[p]
	return id, ok
}

// views returns prefix snapshots of the term and predicate tables. The
// returned slice headers are stable: later appends may grow the shared
// backing array beyond their length but never touch the prefix.
func (d *dict) views() ([]rdf.Term, []string) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.terms, d.preds
}

// Store is an immutable-after-Build triple store snapshot. The zero
// value is not usable; call New. Snapshots derived via Restrict or Patch
// share the receiver's dictionary (see dict); the snapshot itself never
// changes after Build, so concurrent readers need no locking.
type Store struct {
	d     *dict
	terms []rdf.Term // prefix view of d.terms visible to this snapshot
	preds []string   // prefix view of d.preds visible to this snapshot

	byPred []predIndex
	nTrip  int
	built  bool

	matMu sync.Mutex
	mats  map[PredID]bitmat.Pair

	// staging, discarded by Build
	staged []tripleIDs
}

type tripleIDs struct {
	s NodeID
	p PredID
	o NodeID
}

// New returns an empty store with a fresh dictionary.
func New() *Store {
	return &Store{
		d:    newDict(),
		mats: make(map[PredID]bitmat.Pair),
	}
}

// Add stages one triple. Must be called before Build.
func (st *Store) Add(t rdf.Triple) error {
	if st.built {
		return fmt.Errorf("storage: Add after Build")
	}
	if err := t.Validate(); err != nil {
		return err
	}
	st.stage(t)
	st.terms, st.preds = st.d.views()
	return nil
}

// AddAll stages a batch of triples, atomically: the whole batch is
// validated up front, and on error nothing is staged and no term of the
// batch is interned — the store is exactly as it was before the call.
func (st *Store) AddAll(ts []rdf.Triple) error {
	if st.built {
		return fmt.Errorf("storage: Add after Build")
	}
	for i, t := range ts {
		if err := t.Validate(); err != nil {
			return fmt.Errorf("storage: triple %d of %d: %w", i, len(ts), err)
		}
	}
	st.stage(ts...)
	st.terms, st.preds = st.d.views()
	return nil
}

// stage interns validated triples — the whole batch under one acquisition
// of the dictionary lock — and appends them to the staging area. Callers
// refresh the snapshot's dictionary views once per batch, not per triple
// (staging is single-owner: the dict cannot be shared before Build, so the
// views only serve the store's own pre-Build accessors).
func (st *Store) stage(ts ...rdf.Triple) {
	st.d.mu.Lock()
	defer st.d.mu.Unlock()
	for _, t := range ts {
		st.staged = append(st.staged, st.d.intern(t))
	}
}

// Build finalizes the store: triples are deduplicated, both index orders
// are sorted, and statistics are computed. Build is idempotent.
func (st *Store) Build() {
	if st.built {
		return
	}
	st.terms, st.preds = st.d.views()
	st.byPred = make([]predIndex, len(st.preds))
	perPred := make([][]pair, len(st.preds))
	for _, t := range st.staged {
		perPred[t.p] = append(perPred[t.p], pair{a: t.s, b: t.o})
	}
	st.staged = nil
	st.nTrip = 0
	for p := range perPred {
		st.byPred[p] = newPredIndexFromPairs(dedupSorted(perPred[p]))
		st.nTrip += len(st.byPred[p].psoS)
	}
	st.built = true
}

func sortPairs(ps []pair) {
	slices.SortFunc(ps, func(x, y pair) int {
		if c := cmp.Compare(x.a, y.a); c != 0 {
			return c
		}
		return cmp.Compare(x.b, y.b)
	})
}

func dedupSorted(ps []pair) []pair {
	sortPairs(ps)
	if len(ps) < 2 {
		return ps
	}
	out := ps[:1]
	for _, e := range ps[1:] {
		if e != out[len(out)-1] {
			out = append(out, e)
		}
	}
	return out
}

func (st *Store) mustBeBuilt() {
	if !st.built {
		panic("storage: access before Build")
	}
}

// NumTriples returns |E_DB| (after deduplication).
func (st *Store) NumTriples() int { st.mustBeBuilt(); return st.nTrip }

// NumNodes returns |O_DB|, the dimension of all bit-vectors and matrices.
func (st *Store) NumNodes() int { return len(st.terms) }

// NumPreds returns |Σ|.
func (st *Store) NumPreds() int { return len(st.preds) }

// Term decodes a node id.
func (st *Store) Term(id NodeID) rdf.Term { return st.terms[id] }

// TermID looks up a term. Terms interned into the shared dictionary
// after this snapshot was taken (by a Patch on a derived store) are
// reported as absent — they cannot occur in this snapshot's triples.
func (st *Store) TermID(t rdf.Term) (NodeID, bool) {
	id, ok := st.d.lookupTerm(t)
	if !ok || int(id) >= len(st.terms) {
		return 0, false
	}
	return id, true
}

// Pred decodes a predicate id.
func (st *Store) Pred(id PredID) string { return st.preds[id] }

// PredIDOf looks up a predicate by IRI. Like TermID, predicates interned
// after this snapshot was taken are reported as absent.
func (st *Store) PredIDOf(p string) (PredID, bool) {
	id, ok := st.d.lookupPred(p)
	if !ok || int(id) >= len(st.preds) {
		return 0, false
	}
	return id, true
}

// PredCount returns the number of p-triples.
func (st *Store) PredCount(p PredID) int {
	st.mustBeBuilt()
	return len(st.byPred[p].psoS)
}

// DistinctSubjects returns the number of distinct subjects under p.
func (st *Store) DistinctSubjects(p PredID) int {
	st.mustBeBuilt()
	return st.byPred[p].distinctS
}

// DistinctObjects returns the number of distinct objects under p.
func (st *Store) DistinctObjects(p PredID) int {
	st.mustBeBuilt()
	return st.byPred[p].distinctO
}

// Objects returns the sorted objects o with (s, p, o) ∈ E_DB — the forward
// map F_p(s). The result aliases the index: it is read-only and valid for
// the store's lifetime.
//
//dualsim:hotpath
func (st *Store) Objects(p PredID, s NodeID) []NodeID {
	st.mustBeBuilt()
	ix := &st.byPred[p]
	lo, hi := equalRun(ix.psoS, s)
	return ix.psoO[lo:hi:hi]
}

// Subjects returns the sorted subjects s with (s, p, o) ∈ E_DB — the
// backward map B_p(o). The result aliases the index: it is read-only and
// valid for the store's lifetime.
//
//dualsim:hotpath
func (st *Store) Subjects(p PredID, o NodeID) []NodeID {
	st.mustBeBuilt()
	ix := &st.byPred[p]
	lo, hi := equalRun(ix.posO, o)
	return ix.posS[lo:hi:hi]
}

// PSO returns the subject and object columns of predicate p in PSO order:
// position i is the triple (subjects[i], p, objects[i]), the position
// pruning masks address. Both alias the index: read-only and valid for the
// store's lifetime.
func (st *Store) PSO(p PredID) (subjects, objects []NodeID) {
	st.mustBeBuilt()
	ix := &st.byPred[p]
	return ix.psoS, ix.psoO
}

// HasTriple reports whether (s, p, o) ∈ E_DB.
//
//dualsim:hotpath
func (st *Store) HasTriple(s NodeID, p PredID, o NodeID) bool {
	return st.FindPair(p, s, o) >= 0
}

// ForEachPair calls fn for every (s, o) pair of predicate p in PSO order;
// stops early if fn returns false.
func (st *Store) ForEachPair(p PredID, fn func(s, o NodeID) bool) {
	st.mustBeBuilt()
	ix := &st.byPred[p]
	for i, s := range ix.psoS {
		if !fn(s, ix.psoO[i]) {
			return
		}
	}
}

// ForEachTriple calls fn for every triple in (pred, subject, object)
// order; stops early if fn returns false.
func (st *Store) ForEachTriple(fn func(s NodeID, p PredID, o NodeID) bool) {
	st.mustBeBuilt()
	for p := range st.byPred {
		ix := &st.byPred[p]
		for i, s := range ix.psoS {
			if !fn(s, PredID(p), ix.psoO[i]) {
				return
			}
		}
	}
}

// Triples materializes the whole store as decoded rdf triples (test and
// export helper).
func (st *Store) Triples() []rdf.Triple {
	st.mustBeBuilt()
	out := make([]rdf.Triple, 0, st.nTrip)
	st.ForEachTriple(func(s NodeID, p PredID, o NodeID) bool {
		out = append(out, rdf.Triple{S: st.terms[s], P: st.preds[p], O: st.terms[o]})
		return true
	})
	return out
}

// Matrices returns the adjacency bit-matrix pair (F_p, B_p) for predicate
// p, building and caching it on first use — per §3.3 only the matrices a
// pattern actually mentions are ever materialized.
func (st *Store) Matrices(p PredID) bitmat.Pair {
	st.mustBeBuilt()
	st.matMu.Lock()
	defer st.matMu.Unlock()
	if m, ok := st.mats[p]; ok {
		return m
	}
	ix := &st.byPred[p]
	cells := make([]bitmat.Cell, len(ix.psoS))
	for i, s := range ix.psoS {
		cells[i] = bitmat.Cell{Row: s, Col: ix.psoO[i]}
	}
	m := bitmat.NewPair(st.NumNodes(), cells)
	st.mats[p] = m
	return m
}

// Restrict builds a new store over the same dictionaries containing only
// the triples accepted by keep. Node and predicate ids remain valid across
// the restriction, so solution mappings computed against the restricted
// store compare directly with ones from the original — this is how the
// pruned database of the paper's Sect. 5 is represented.
func (st *Store) Restrict(keep func(s NodeID, p PredID, o NodeID) bool) *Store {
	st.mustBeBuilt()
	out := &Store{
		d:     st.d,
		terms: st.terms,
		preds: st.preds,
		mats:  make(map[PredID]bitmat.Pair),
	}
	out.byPred = make([]predIndex, len(st.preds))
	for p := range st.byPred {
		src := &st.byPred[p]
		var s, o []NodeID
		for i, sub := range src.psoS {
			if keep(sub, PredID(p), src.psoO[i]) {
				s, o = append(s, sub), append(o, src.psoO[i])
			}
		}
		out.byPred[p] = newPredIndex(s, o)
		out.nTrip += len(s)
	}
	out.built = true
	return out
}

// PairAt returns the i-th (subject, object) pair of predicate p in PSO
// order; 0 ≤ i < PredCount(p).
func (st *Store) PairAt(p PredID, i int) (NodeID, NodeID) {
	st.mustBeBuilt()
	ix := &st.byPred[p]
	return ix.psoS[i], ix.psoO[i]
}

// FindPair returns the PSO position of (s, p, o), or -1 if absent. The
// position is stable for the lifetime of the store and is used to address
// triples in pruning masks.
//
//dualsim:hotpath
func (st *Store) FindPair(p PredID, s, o NodeID) int {
	st.mustBeBuilt()
	ix := &st.byPred[p]
	lo, hi := equalRun(ix.psoS, s)
	if i := lowerBound(ix.psoO, lo, hi, o); i < hi && ix.psoO[i] == o {
		return i
	}
	return -1
}

// RestrictByMask builds a restricted store (shared dictionaries, cf.
// Restrict) keeping exactly the triples whose PSO position is set in the
// predicate's mask. A nil mask drops the whole predicate.
func (st *Store) RestrictByMask(masks []*bitvec.Vector) *Store {
	st.mustBeBuilt()
	out := &Store{
		d:     st.d,
		terms: st.terms,
		preds: st.preds,
		mats:  make(map[PredID]bitmat.Pair),
	}
	out.byPred = make([]predIndex, len(st.preds))
	for p := range st.byPred {
		if p >= len(masks) || masks[p] == nil {
			continue
		}
		n := masks[p].Count()
		src := &st.byPred[p]
		cols := make([]NodeID, 2*n)
		s, o := cols[:n:n], cols[n:]
		k := 0
		masks[p].ForEach(func(i int) bool {
			s[k], o[k] = src.psoS[i], src.psoO[i]
			k++
			return true
		})
		out.byPred[p] = newPredIndex(s, o)
		out.nTrip += n
	}
	out.built = true
	return out
}

// FromTriples is a convenience constructor: stage, build, return.
func FromTriples(ts []rdf.Triple) (*Store, error) {
	st := New()
	if err := st.AddAll(ts); err != nil {
		return nil, err
	}
	st.Build()
	return st, nil
}
