package storage

import (
	"fmt"

	"dualsim/internal/bitmat"
)

// Union merges stores whose predicate sets are disjoint — the per-shard
// slices of a gathered query — into one store. The result's dictionary
// starts as a copy of what the first part sees, so the first part's ids
// and indexes carry over untouched (their directories widened to the
// union's node count); every later part interns each of its terms
// once, then remaps, re-sorts and re-indexes only its own runs. No part
// is modified, so a part may be united again with others. A predicate
// present in two parts is an error: placement by predicate says no two
// shards hold one, and merging runs is not what this does. Union of no
// parts is the empty store, of one part that part.
func Union(parts ...*Store) (*Store, error) {
	if len(parts) == 0 {
		return FromTriples(nil)
	}
	base := parts[0]
	if len(parts) == 1 {
		return base, nil
	}
	d := base.d.fork(base.terms, base.preds)
	byPred := append([]predIndex(nil), base.byPred...)
	claimed := make([]bool, len(byPred))
	for p := range claimed {
		claimed[p] = true
	}
	nTrip := base.nTrip
	for _, part := range parts[1:] {
		ids := make([]NodeID, part.terms.len())
		pids := make([]PredID, len(part.preds))
		d.mu.Lock()
		for i := range ids {
			var err error
			if ids[i], err = d.internTerm(part.terms.kind(NodeID(i)), part.terms.value(NodeID(i))); err != nil {
				d.mu.Unlock()
				return nil, err
			}
		}
		for i, p := range part.preds {
			pids[i] = d.internPred(p)
		}
		nodes, n := len(d.kinds), len(d.preds)
		d.mu.Unlock()
		for len(byPred) < n {
			byPred, claimed = append(byPred, predIndex{}), append(claimed, false)
		}
		for i, p := range pids {
			if claimed[p] {
				return nil, fmt.Errorf("storage: union: predicate %q is in two parts", part.preds[i])
			}
			claimed[p] = true
			src := &part.byPred[i]
			run := make([]pair, len(src.psoS))
			for j, s := range src.psoS {
				run[j] = pair{a: ids[s], b: ids[src.psoO[j]]}
			}
			sortPairs(run) // the remap is injective: no duplicates to drop
			byPred[p] = newPredIndexFromPairs(nodes, run)
			nTrip += len(run)
		}
	}
	out := &Store{d: d, nTrip: nTrip}
	out.terms, out.preds = d.views()
	for len(byPred) < len(out.preds) { // predicates another store of the lineage interned meanwhile
		byPred = append(byPred, predIndex{})
	}
	widen(byPred, out.terms.len())
	out.byPred = byPred
	out.empty = bitmat.EmptyPair(out.terms.len())
	return out, nil
}
