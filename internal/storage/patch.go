package storage

import (
	"fmt"

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
	// ReusedMatrices counts cached adjacency bit-matrix pairs carried
	// over from the receiver (possible only for untouched predicates
	// when the node universe did not grow — the matrix dimension is the
	// node count).
	ReusedMatrices int
	// TouchedNodes lists the node ids occurring in an effective add or
	// delete (subjects and objects, deduplicated). Incremental index
	// maintenance downstream — e.g. partition advance — re-examines
	// exactly these.
	TouchedNodes []NodeID
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

// predChange accumulates one predicate's effective patch. addSet
// mirrors adds for O(1) duplicate detection.
type predChange struct {
	adds   []pair
	addSet map[pair]bool
	dels   map[pair]bool
}

// Patch derives a new snapshot containing the receiver's triples minus
// dels plus adds, in that order: a triple both deleted and added ends up
// present. The receiver is unchanged and remains fully usable — this is
// the MVCC building block of the live-update layer.
//
// The two snapshots share the append-only dictionary, so node and
// predicate ids are stable across the patch and new terms extend the id
// space. Index maintenance is incremental at predicate granularity: only
// predicates named by an effective change are re-indexed; every other
// predicate shares the receiver's index (and, when no new term was
// interned, its cached bit-matrix pair).
//
// Patch is atomic: both triple slices are validated before anything is
// interned, so an invalid triple leaves the dictionary untouched.
// Concurrent Patch calls on snapshots of one lineage are safe with
// respect to the shared dictionary, but the caller is responsible for
// ordering them (the delta overlay serializes).
func (st *Store) Patch(adds, dels []rdf.Triple) (*Store, PatchStats, error) {
	st.mustBeBuilt()
	var stats PatchStats
	if err := ValidateBatch(adds, dels); err != nil {
		return nil, stats, err
	}

	oldTerms, oldPreds := len(st.terms), len(st.preds)

	// Deletes resolve against the receiver's view only: a term or
	// predicate this snapshot cannot see cannot occur in its triples, so
	// the delete is a no-op (and must not intern anything).
	touched := make(map[PredID]*predChange)
	change := func(p PredID) *predChange {
		ch := touched[p]
		if ch == nil {
			ch = &predChange{addSet: make(map[pair]bool), dels: make(map[pair]bool)}
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
		ids := st.d.intern(t)
		st.d.mu.Unlock()
		pr := pair{a: ids.s, b: ids.o}
		ch := touched[ids.p]
		switch {
		case ch != nil && ch.dels[pr]:
			// Deleted then re-added in this patch: net zero, cancel the
			// tombstone.
			delete(ch.dels, pr)
		case int(ids.p) < oldPreds && int(ids.s) < oldTerms && int(ids.o) < oldTerms &&
			st.HasTriple(ids.s, ids.p, ids.o):
			// Already present and not deleted: no-op.
		case ch != nil && ch.addSet[pr]:
			// Duplicate add within the patch.
		default:
			ch = change(ids.p)
			ch.adds = append(ch.adds, pr)
			ch.addSet[pr] = true
		}
	}

	out := &Store{
		d:     st.d,
		mats:  make(map[PredID]bitmat.Pair),
		built: true,
		nTrip: st.nTrip,
	}
	out.terms, out.preds = st.d.views()
	stats.NewTerms = len(out.terms) - oldTerms
	stats.NewPreds = len(out.preds) - oldPreds

	out.byPred = make([]predIndex, len(out.preds))
	copy(out.byPred, st.byPred)

	touchedNodes := make(map[NodeID]bool)
	for p, ch := range touched {
		if len(ch.adds) == 0 && len(ch.dels) == 0 {
			continue // every change of this predicate cancelled out
		}
		var old predIndex
		if int(p) < len(st.byPred) {
			old = st.byPred[p]
		}
		kept := make([]pair, 0, len(old.psoS)+len(ch.adds)-len(ch.dels))
		for i, sub := range old.psoS {
			e := pair{a: sub, b: old.psoO[i]}
			if ch.dels[e] {
				touchedNodes[e.a] = true
				touchedNodes[e.b] = true
				continue
			}
			kept = append(kept, e)
		}
		for _, e := range ch.adds {
			touchedNodes[e.a] = true
			touchedNodes[e.b] = true
		}
		out.byPred[p] = newPredIndexFromPairs(dedupSorted(append(kept, ch.adds...)))
		out.nTrip += len(out.byPred[p].psoS) - len(old.psoS)
		stats.Added += len(ch.adds)
		stats.Deleted += len(ch.dels)
		stats.TouchedPreds++
	}
	stats.ReusedIndexes = len(out.preds) - stats.TouchedPreds
	for id := range touchedNodes {
		stats.TouchedNodes = append(stats.TouchedNodes, id)
	}

	// Adjacency matrices are dimensioned by the node count; carrying a
	// cached pair over is sound only for an untouched predicate in an
	// unchanged universe.
	if stats.NewTerms == 0 {
		st.matMu.Lock()
		for p, m := range st.mats {
			if ch := touched[p]; ch == nil || (len(ch.adds) == 0 && len(ch.dels) == 0) {
				out.mats[p] = m
				stats.ReusedMatrices++
			}
		}
		st.matMu.Unlock()
	}
	return out, stats, nil
}
