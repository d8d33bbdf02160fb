package storage

import (
	"fmt"
	"maps"
	"slices"

	"dualsim/internal/bitmat"
	"dualsim/internal/rdf"
)

// PatchStats reports what a Patch actually changed, after no-op
// elimination (re-adding a present triple and deleting an absent one do
// nothing).
type PatchStats struct {
	// Added and Deleted count the effective triple changes.
	Added, Deleted int
	// TouchedPreds is the number of predicates whose indexes were
	// rebuilt; ReusedIndexes counts the predicate indexes shared with
	// the receiver snapshot unchanged.
	TouchedPreds, ReusedIndexes int
	// NewTerms and NewPreds count dictionary growth: terms and
	// predicates first interned by this patch.
	NewTerms, NewPreds int
}

// ValidateBatch checks every triple of a patch batch up front — the
// shared gate of Patch's atomicity contract and of the WAL append that
// precedes a durable apply (the log must never record a batch the
// in-memory apply, or a later replay, would reject).
func ValidateBatch(adds, dels []rdf.Triple) error {
	for i, t := range adds {
		if err := t.Validate(); err != nil {
			return fmt.Errorf("storage: patch add %d of %d: %w", i, len(adds), err)
		}
	}
	for i, t := range dels {
		if err := t.Validate(); err != nil {
			return fmt.Errorf("storage: patch del %d of %d: %w", i, len(dels), err)
		}
	}
	return nil
}

// predChange accumulates one predicate's effective patch: adds may name
// a pair more than once until Patch sorts and deduplicates them.
type predChange struct {
	adds []pair
	dels map[pair]bool
}

// Patch derives a new snapshot containing the receiver's triples minus
// dels plus adds, in that order: a triple both deleted and added ends up
// present. The receiver is unchanged and remains fully usable — this is
// the MVCC building block of the live-update layer.
//
// The two snapshots share the append-only dictionary, so node and
// predicate ids are stable across the patch and new terms extend the id
// space. Index maintenance is incremental at predicate granularity: only
// predicates named by an effective change are re-indexed — the delta is
// sorted and merged into the predicate's PSO run in one linear pass that
// drops the deleted pairs, and newPredIndex lays out the rest; every
// other predicate shares the receiver's columns and row offsets, its
// directory widened to the new node count when the patch interned terms.
//
// Patch is atomic: both triple slices are validated before anything is
// interned, so an invalid triple leaves the dictionary untouched.
// Concurrent Patch calls on snapshots of one lineage are safe with
// respect to the shared dictionary, but the caller is responsible for
// ordering them (the session's single writer serializes).
func (st *Store) Patch(adds, dels []rdf.Triple) (*Store, PatchStats, error) {
	var stats PatchStats
	if err := ValidateBatch(adds, dels); err != nil {
		return nil, stats, err
	}

	oldTerms, oldPreds := st.terms.len(), len(st.preds)

	// Deletes resolve against the receiver's view only: a term or
	// predicate this snapshot cannot see cannot occur in its triples, so
	// the delete is a no-op (and must not intern anything).
	touched := make(map[PredID]*predChange)
	change := func(p PredID) *predChange {
		ch := touched[p]
		if ch == nil {
			ch = &predChange{dels: make(map[pair]bool)}
			touched[p] = ch
		}
		return ch
	}
	for _, t := range dels {
		s, okS := st.TermID(t.S)
		p, okP := st.PredIDOf(t.P)
		o, okO := st.TermID(t.O)
		if !okS || !okP || !okO || !st.HasTriple(s, p, o) {
			continue
		}
		change(p).dels[pair{a: s, b: o}] = true
	}

	// Adds intern through the shared dictionary — growing it is harmless
	// even when the add turns out to be a duplicate; the ids stay
	// consistent for every later snapshot of the lineage.
	for _, t := range adds {
		st.d.mu.Lock()
		p, pr, err := st.d.intern(t)
		st.d.mu.Unlock()
		if err != nil {
			return nil, stats, err
		}
		switch ch := touched[p]; {
		case ch != nil && ch.dels[pr]:
			// Deleted then re-added in this patch: net zero, cancel the
			// tombstone.
			delete(ch.dels, pr)
		case int(p) < oldPreds && int(pr.a) < oldTerms && int(pr.b) < oldTerms &&
			st.HasTriple(pr.a, p, pr.b):
			// Already present and not deleted: no-op.
		default:
			ch = change(p)
			ch.adds = append(ch.adds, pr)
		}
	}

	out := &Store{d: st.d, nTrip: st.nTrip}
	out.terms, out.preds = st.d.views()
	n := out.terms.len()
	stats.NewTerms = n - oldTerms
	stats.NewPreds = len(out.preds) - oldPreds

	out.byPred = make([]predIndex, len(out.preds))
	copy(out.byPred, st.byPred)
	widen(out.byPred, n)
	out.empty = st.empty.Widen(n)

	for p, ch := range touched {
		adds := dedupSorted(ch.adds)
		if len(adds) == 0 && len(ch.dels) == 0 {
			continue // every change of this predicate cancelled out
		}
		dels := slices.SortedFunc(maps.Keys(ch.dels), comparePairs)
		var old predIndex
		if int(p) < len(st.byPred) {
			old = st.byPred[p]
		}
		s, o := old.merge(adds, dels)
		out.byPred[p] = newPredIndex(n, s, o)
		out.nTrip += len(adds) - len(dels)
		stats.Added += len(adds)
		stats.Deleted += len(dels)
		stats.TouchedPreds++
	}
	stats.ReusedIndexes = len(out.preds) - stats.TouchedPreds
	return out, stats, nil
}

// merge returns ix's PSO run minus dels plus adds as two fresh columns,
// in one pass. Both are sorted and deduplicated; every del is a pair of
// the run and no add is.
func (ix *predIndex) merge(adds, dels []pair) (s, o []NodeID) {
	n := len(ix.psoS) + len(adds) - len(dels)
	cols := make([]NodeID, 2*n)
	s, o = cols[:n:n], cols[n:]
	k := 0
	for i, sub := range ix.psoS {
		e := pair{a: sub, b: ix.psoO[i]}
		for ; len(adds) > 0 && comparePairs(adds[0], e) < 0; adds = adds[1:] {
			s[k], o[k] = adds[0].a, adds[0].b
			k++
		}
		if len(dels) > 0 && dels[0] == e {
			dels = dels[1:]
			continue
		}
		s[k], o[k] = e.a, e.b
		k++
	}
	for _, e := range adds {
		s[k], o[k] = e.a, e.b
		k++
	}
	return s, o
}

// Compact returns a store with the receiver's triples over a dictionary
// of its own that holds only the live terms, those some triple uses:
// terms that only deleted triples used, and terms interned but never
// used, are reclaimed. The receiver is unchanged.
//
// Compact is the cut (Slice) over every predicate, so predicate ids
// never change. When every term the receiver sees is live, ids stay as
// they are: the result shares every predicate index, and only the
// dictionary is forked down to the receiver's view.
func (st *Store) Compact() *Store {
	preds := st.predIDs()
	live := st.usedTerms(preds)
	if live.n < st.terms.len() {
		return st.cut(preds, live)
	}
	out := &Store{d: st.d.fork(st.terms, st.preds), byPred: st.byPred, empty: st.empty, nTrip: st.nTrip}
	out.terms, out.preds = out.d.views()
	return out
}

// Slice returns the store cut down to the given predicates, each once
// however often it is listed, in id order: the store DecodeSnapshot
// makes of EncodeSlice's body, without the bytes. A predicate's id is
// its position among them, a term's its rank among the terms their
// triples use, and the result shares no array with the receiver.
func (st *Store) Slice(preds []PredID) *Store {
	preds = slices.Compact(slices.Sorted(slices.Values(preds)))
	return st.cut(preds, st.usedTerms(preds))
}

// cut builds the store of the given predicates over a fresh dictionary
// of the terms ranks numbers. The rank map is monotone, so every PSO
// run renumbered through it stays sorted: nothing is re-sorted or
// re-interned, and newPredIndex lays out the renumbered runs.
func (st *Store) cut(preds []PredID, ranks *termRanks) *Store {
	size := 0
	for id := range ranks.ids {
		size += int(st.terms.offsets[id+1] - st.terms.offsets[id])
	}
	d := &dict{arena: make([]byte, 0, size), offsets: make([]uint32, 1, ranks.n+1), kinds: make([]rdf.Kind, 0, ranks.n)}
	names := make([]string, len(preds))
	out := &Store{d: d, byPred: make([]predIndex, len(preds)), empty: bitmat.EmptyPair(ranks.n)}
	for id := range ranks.ids {
		push(d, st.terms.kind(id), st.terms.value(id))
	}
	for i, p := range preds {
		names[i] = st.preds[p]
		src := &st.byPred[p]
		n := len(src.psoS)
		cols := make([]NodeID, 2*n)
		s, o := cols[:n:n], cols[n:]
		for j, sub := range src.psoS {
			s[j], o[j] = ranks.of(sub), ranks.of(src.psoO[j])
		}
		out.byPred[i] = newPredIndex(ranks.n, s, o)
		out.nTrip += n
	}
	d.finish(names)
	out.terms, out.preds = d.views()
	return out
}
