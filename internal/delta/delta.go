// Package delta turns the immutable-snapshot storage layer into a live
// graph database: an Overlay maintains a mutable write layer — staged
// adds and tombstoned deletes — over an immutable base storage.Store and
// publishes a fresh epoch-numbered snapshot per batch of mutations.
//
// Reads never consult the overlay: every Apply produces a complete
// snapshot via storage.Patch, whose per-predicate copy-on-write index
// maintenance keeps the cost proportional to the touched predicates, not
// the store. Readers therefore keep the plain Store interface (and the
// solver its bit-matrix kernels), while in-flight queries pin whichever
// snapshot they started on — MVCC with a single writer.
//
// The overlay ledger exists for hygiene: patched snapshots share an
// append-only dictionary, so deleted triples release their index space
// but dictionary entries (and the per-predicate sort orders' slack)
// accumulate. Once the ledger crosses the compaction threshold — or on
// demand — Compact rebuilds a pristine store with a fresh dictionary and
// resets the ledger. This mirrors the maintenance regime of external-
// memory bisimulation updates (Luo et al.): cheap incremental patches,
// periodic consolidation.
package delta

import (
	"fmt"
	"sync"

	"dualsim/internal/rdf"
	"dualsim/internal/storage"
)

// Delta is one batch of mutations. Dels are applied before Adds: a
// triple occurring in both ends up present. Deleting an absent triple
// and re-adding a present one are no-ops.
type Delta struct {
	Adds, Dels []rdf.Triple
}

// Result reports one Apply or Compact.
type Result struct {
	// Epoch is the epoch of the published snapshot. Epochs start at 0
	// for the base store and increase by one per Apply or explicit
	// Compact.
	Epoch uint64
	// Added and Deleted count the effective triple changes (after no-op
	// elimination).
	Added, Deleted int
	// OverlaySize is the ledger size — staged adds plus tombstones
	// relative to the last compacted base — after the operation.
	OverlaySize int
	// Compacted reports that the operation rebuilt the store from
	// scratch (threshold crossed, or Compact was called).
	Compacted bool
	// NoOp reports that the delta was empty: the current snapshot was
	// returned unchanged and the epoch did not advance.
	NoOp bool
	// Patch carries the storage-level maintenance statistics of the
	// incremental path (zero value when the operation compacted).
	Patch storage.PatchStats
}

// Overlay is a single-writer mutable view over a store lineage. All
// methods are safe for concurrent use; mutations are serialized
// internally. Readers obtain immutable snapshots via Current and are
// never blocked by a writer.
type Overlay struct {
	mu        sync.Mutex
	base      *storage.Store // last compacted store
	cur       *storage.Store // published snapshot = base ⊕ ledger
	epoch     uint64
	adds      map[tripleKey]bool // staged adds absent from base
	dels      map[tripleKey]bool // tombstoned base triples
	threshold int
	compacted int
}

// tripleKey identifies a triple across dictionaries.
type tripleKey struct{ s, p, o string }

func keyOf(t rdf.Triple) tripleKey {
	return tripleKey{s: t.S.Key(), p: t.P, o: t.O.Key()}
}

// New wraps a built store. threshold > 0 arms automatic compaction once
// the ledger holds that many entries; threshold = 0 leaves compaction to
// explicit Compact calls.
func New(base *storage.Store, threshold int) (*Overlay, error) {
	return NewAt(base, threshold, 0)
}

// NewAt is New with an explicit starting epoch — the warm-restart hook:
// a store recovered from a durable snapshot resumes its epoch sequence
// where the previous process left off instead of restarting from 0, so
// clients tracking epochs never observe time moving backwards.
func NewAt(base *storage.Store, threshold int, epoch uint64) (*Overlay, error) {
	if base == nil {
		return nil, fmt.Errorf("delta: nil base store")
	}
	if threshold < 0 {
		return nil, fmt.Errorf("delta: negative compaction threshold %d", threshold)
	}
	return &Overlay{
		base:      base,
		cur:       base,
		epoch:     epoch,
		adds:      make(map[tripleKey]bool),
		dels:      make(map[tripleKey]bool),
		threshold: threshold,
	}, nil
}

// Current returns the published snapshot and its epoch.
func (o *Overlay) Current() (*storage.Store, uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.cur, o.epoch
}

// Epoch returns the current epoch.
func (o *Overlay) Epoch() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.epoch
}

// Size returns the ledger size: staged adds plus tombstones relative to
// the last compacted base.
func (o *Overlay) Size() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.adds) + len(o.dels)
}

// Compactions returns how many times the overlay has compacted.
func (o *Overlay) Compactions() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.compacted
}

// Apply stages the delta and publishes a new snapshot at the next epoch.
// The call is atomic: on error (an ill-formed triple) nothing changes,
// not even the shared dictionary. When the ledger crosses the threshold
// the new snapshot is additionally compacted before publication; the
// whole operation still advances the epoch exactly once.
func (o *Overlay) Apply(d Delta) (*storage.Store, Result, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	// An empty delta is a no-op: publishing a fresh epoch for it would
	// only invalidate cached plans and force re-planning for a snapshot
	// that is bit-identical to the current one.
	if len(d.Adds) == 0 && len(d.Dels) == 0 {
		return o.cur, Result{
			Epoch:       o.epoch,
			OverlaySize: len(o.adds) + len(o.dels),
			NoOp:        true,
		}, nil
	}
	next, ps, err := o.cur.Patch(d.Adds, d.Dels)
	if err != nil {
		return nil, Result{Epoch: o.epoch, OverlaySize: len(o.adds) + len(o.dels)}, err
	}

	// Ledger maintenance, relative to the compacted base: a delete of a
	// staged add un-stages it, an add of a tombstoned triple cancels the
	// tombstone; only genuine deviations from base are recorded.
	for _, t := range d.Dels {
		k := keyOf(t)
		switch {
		case o.adds[k]:
			delete(o.adds, k)
		case baseHas(o.base, t):
			o.dels[k] = true
		}
	}
	for _, t := range d.Adds {
		k := keyOf(t)
		switch {
		case o.dels[k]:
			delete(o.dels, k)
		case !baseHas(o.base, t):
			o.adds[k] = true
		}
	}

	o.cur = next
	o.epoch++
	res := Result{
		Epoch:       o.epoch,
		Added:       ps.Added,
		Deleted:     ps.Deleted,
		OverlaySize: len(o.adds) + len(o.dels),
		Patch:       ps,
	}
	if o.threshold > 0 && res.OverlaySize >= o.threshold {
		if err := o.compactLocked(); err != nil {
			return nil, res, err
		}
		res.Compacted = true
		res.OverlaySize = 0
		// The incremental patch was subsumed by the rebuild; its
		// maintenance stats (and node ids!) no longer describe the
		// published snapshot.
		res.Patch = storage.PatchStats{}
	}
	return o.cur, res, nil
}

// Compact rebuilds the current snapshot into a pristine store with a
// fresh dictionary (reclaiming tombstoned triples' and dead terms'
// space), resets the ledger, and publishes it at the next epoch. Node
// ids are NOT stable across a compaction — anything keyed by them
// (plans, candidate sets, restricted solver bounds) must be rebuilt.
func (o *Overlay) Compact() (*storage.Store, Result, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if err := o.compactLocked(); err != nil {
		return nil, Result{Epoch: o.epoch}, err
	}
	o.epoch++
	return o.cur, Result{
		Epoch:     o.epoch,
		Compacted: true,
	}, nil
}

func (o *Overlay) compactLocked() error {
	fresh, err := storage.FromTriples(o.cur.Triples())
	if err != nil {
		return fmt.Errorf("delta: compaction rebuild: %w", err)
	}
	o.base = fresh
	o.cur = fresh
	o.adds = make(map[tripleKey]bool)
	o.dels = make(map[tripleKey]bool)
	o.compacted++
	return nil
}

// baseHas reports membership of a decoded triple in the base store.
func baseHas(st *storage.Store, t rdf.Triple) bool {
	s, okS := st.TermID(t.S)
	p, okP := st.PredIDOf(t.P)
	o, okO := st.TermID(t.O)
	return okS && okP && okO && st.HasTriple(s, p, o)
}
