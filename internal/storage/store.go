// Package storage implements the in-memory graph database the rest of the
// system runs on: a dictionary-encoded triple store whose per-predicate
// index is the predicate's adjacency bit-matrix pair — the rows the SOI
// solver multiplies against are the posting lists every lookup reads —
// plus per-predicate statistics for join ordering.
//
// A Store is the concrete realization of the paper's graph database
// DB = (O_DB, Σ, E_DB): the node universe O_DB contains every subject and
// object term, the alphabet Σ is the predicate set, and E_DB is the triple
// relation.
//
// Index layout (index.go): each predicate holds its triples once in PSO
// order, as a subject and an object column, and once more as the POS
// order's subject column — 12 bytes per triple. The object column is the
// forward matrix F's column ids and the POS subject column the backward
// matrix B's; each matrix finds a row through a directory over the
// non-empty rows (a summary bit per node, a prefix count per 64 nodes and
// an offset per non-empty row), so Objects, Subjects and Matrices(p).F.Row
// are one read of one array, returned as a read-only sub-slice (no copy).
// A store is made from triples one way, FromTriples, and derived from
// stores by RestrictByMask, Patch, Compact, Slice, Union and the
// snapshot decoder. Every index they make is laid out by the one
// constructor newPredIndex, which takes the sorted, deduplicated PSO run
// and derives the POS order with a stable distribution pass on the
// object id, so building a per-query pruned store is linear in what it
// keeps plus the directories. Patch hands it the touched predicate's run
// merged with the sorted delta, and Compact and Slice each run
// renumbered through a monotone map of the terms kept: neither sorts a
// run.
//
// The serving path does not build that pruned store: it reads this one
// through a Filter (filter.go). RestrictByMask remains for the paper's
// tables, the CLI's dump and the oracles.
//
// Dictionary layout (dict.go): node ids are handed out in insertion
// order. The term values sit back to back in one byte arena, found
// through a uint32 offset column, with one byte per term for its kind;
// an open-addressed uint32 id table keyed by a maphash of
// (kind, value) maps a term back to its id, comparing through the
// arena. There is no Go string, pointer or map entry per term: Term
// returns a Value aliasing the arena, and FromTriples, Patch, Union and
// the snapshot decoder all intern through the one table.
package storage

import (
	"cmp"
	"fmt"
	"slices"

	"dualsim/internal/bitmat"
	"dualsim/internal/bitvec"
	"dualsim/internal/rdf"
)

// NodeID indexes the node universe O_DB (subjects and objects).
type NodeID = uint32

// PredID indexes the predicate alphabet Σ.
type PredID = uint32

// pair is one (subject, object) edge of a predicate — the form triples
// are grouped, sorted and deduplicated in before newPredIndex lays them
// out as columns.
type pair struct{ a, b NodeID }

// Store is an immutable triple store snapshot, made by FromTriples or
// derived from another store (RestrictByMask, Patch, Compact, Slice,
// Union, the snapshot decoder). Snapshots derived via RestrictByMask or Patch share
// the receiver's dictionary (see dict); a snapshot itself never changes,
// so concurrent readers need no locking.
type Store struct {
	d     *dict
	terms termView // prefix view of d's term columns visible to this snapshot
	preds []string // prefix view of d.preds visible to this snapshot

	byPred []predIndex
	empty  bitmat.Pair // the adjacency of every predicate without triples
	nTrip  int
}

// FromTriples builds a store over a fresh dictionary. The whole batch is
// validated first, so an invalid triple builds nothing; terms get their
// ids in order of first occurrence, and duplicate triples count once.
func FromTriples(ts []rdf.Triple) (*Store, error) {
	for i, t := range ts {
		if err := t.Validate(); err != nil {
			return nil, fmt.Errorf("storage: triple %d of %d: %w", i, len(ts), err)
		}
	}
	d := newDict()
	var perPred [][]pair
	d.mu.Lock()
	for _, t := range ts {
		p, pr, err := d.intern(t)
		if err != nil {
			d.mu.Unlock()
			return nil, err
		}
		if int(p) == len(perPred) {
			perPred = append(perPred, nil)
		}
		perPred[p] = append(perPred[p], pr)
	}
	// The layout reads the dictionary through views, which take the read
	// lock: release the write lock first.
	d.mu.Unlock()
	return layout(d, perPred), nil
}

// layout builds a store over everything d holds from each predicate's
// pairs, in any order and with repeats.
func layout(d *dict, perPred [][]pair) *Store {
	st := &Store{d: d}
	st.terms, st.preds = d.views()
	n := st.terms.len()
	st.byPred = make([]predIndex, len(st.preds))
	for p, run := range perPred {
		st.byPred[p] = newPredIndexFromPairs(n, dedupSorted(run))
		st.nTrip += len(st.byPred[p].psoS)
	}
	st.empty = bitmat.EmptyPair(n)
	return st
}

// comparePairs orders pairs by (a, b), the PSO order.
func comparePairs(x, y pair) int {
	if c := cmp.Compare(x.a, y.a); c != 0 {
		return c
	}
	return cmp.Compare(x.b, y.b)
}

func sortPairs(ps []pair) { slices.SortFunc(ps, comparePairs) }

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

// NumTriples returns |E_DB| (after deduplication).
func (st *Store) NumTriples() int { return st.nTrip }

// NumNodes returns |O_DB|, the dimension of all bit-vectors and matrices.
func (st *Store) NumNodes() int { return st.terms.len() }

// NumPreds returns |Σ|.
func (st *Store) NumPreds() int { return len(st.preds) }

// predIDs lists every predicate id in order.
func (st *Store) predIDs() []PredID {
	ids := make([]PredID, len(st.preds))
	for p := range ids {
		ids[p] = PredID(p)
	}
	return ids
}

// Term decodes a node id. The term's Value aliases the dictionary's
// arena — no allocation, valid for good, and never to be modified.
//
//dualsim:hotpath
func (st *Store) Term(id NodeID) rdf.Term {
	return rdf.Term{Kind: st.terms.kind(id), Value: st.terms.value(id)}
}

// TermID looks up a term without allocating. Terms interned into the
// shared dictionary after this snapshot was taken (by a Patch on a
// derived store) are reported as absent — they cannot occur in this
// snapshot's triples.
//
//dualsim:hotpath
func (st *Store) TermID(t rdf.Term) (NodeID, bool) {
	id, ok := st.d.lookupTerm(t.Kind, t.Value)
	if !ok || int(id) >= st.terms.len() {
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
	return len(st.byPred[p].psoS)
}

// DistinctSubjects returns the number of distinct subjects under p.
func (st *Store) DistinctSubjects(p PredID) int {
	return st.Matrices(p).F.NonEmptyRowCount()
}

// DistinctObjects returns the number of distinct objects under p.
func (st *Store) DistinctObjects(p PredID) int {
	return st.Matrices(p).B.NonEmptyRowCount()
}

// Objects returns the sorted objects o with (s, p, o) ∈ E_DB — the forward
// map F_p(s), row s of Matrices(p).F. The result aliases the index: it is
// read-only and valid for the store's lifetime.
//
//dualsim:hotpath
func (st *Store) Objects(p PredID, s NodeID) []NodeID {
	return st.Matrices(p).F.Row(int(s))
}

// Subjects returns the sorted subjects s with (s, p, o) ∈ E_DB — the
// backward map B_p(o), row o of Matrices(p).B. The result aliases the
// index: it is read-only and valid for the store's lifetime.
//
//dualsim:hotpath
func (st *Store) Subjects(p PredID, o NodeID) []NodeID {
	return st.Matrices(p).B.Row(int(o))
}

// PSO returns the subject and object columns of predicate p in PSO order:
// position i is the triple (subjects[i], p, objects[i]), the position
// pruning masks address. Both alias the index: read-only and valid for the
// store's lifetime.
//
//dualsim:hotpath
func (st *Store) PSO(p PredID) (subjects, objects []NodeID) {
	ix := &st.byPred[p]
	return ix.psoS, ix.psoO
}

// HasTriple reports whether (s, p, o) ∈ E_DB.
//
//dualsim:hotpath
func (st *Store) HasTriple(s NodeID, p PredID, o NodeID) bool {
	return st.FindPair(p, s, o) >= 0
}

// Triples materializes the whole store as decoded rdf triples in
// (predicate, subject, object) order (test and export helper).
func (st *Store) Triples() []rdf.Triple {
	out := make([]rdf.Triple, 0, st.nTrip)
	for p := range st.byPred {
		subjects, objects := st.PSO(PredID(p))
		for i, s := range subjects {
			out = append(out, rdf.Triple{S: st.Term(s), P: st.preds[p], O: st.Term(objects[i])})
		}
	}
	return out
}

// Matrices returns the adjacency bit-matrix pair (F_p, B_p) of predicate
// p, dimensioned by NumNodes. It is the predicate's index itself — no
// copy, no lock, no allocation — so the solver's ×b kernels, the
// executor's posting lists and Objects/Subjects read the same rows.
//
//dualsim:hotpath
func (st *Store) Matrices(p PredID) bitmat.Pair {
	if m := st.byPred[p].adj; m.F != nil {
		return m
	}
	return st.empty
}

// FindPair returns the PSO position of (s, p, o), or -1 if absent. The
// position is stable for the lifetime of the store and is used to address
// triples in pruning masks.
//
//dualsim:hotpath
func (st *Store) FindPair(p PredID, s, o NodeID) int {
	lo, hi := st.Matrices(p).F.Span(int(s))
	if i, found := slices.BinarySearch(st.byPred[p].psoO[lo:hi], o); found {
		return lo + i
	}
	return -1
}

// RestrictByMask builds a new store over the same dictionaries keeping
// exactly the triples whose PSO position is set in the predicate's mask;
// a nil mask drops the whole predicate. Node and predicate ids remain
// valid across the restriction, so solution mappings computed against the
// restricted store compare directly with ones from the original — this is
// how the pruned database of the paper's Sect. 5 is represented.
func (st *Store) RestrictByMask(masks []*bitvec.Vector) *Store {
	out := &Store{
		d:     st.d,
		terms: st.terms,
		preds: st.preds,
		empty: st.empty,
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
		out.byPred[p] = newPredIndex(st.terms.len(), s, o)
		out.nTrip += n
	}
	return out
}
