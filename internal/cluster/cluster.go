// Package cluster is the scale-out layer over dualsimd: predicate-hash
// sharding, WAL-streaming read replicas, and (in the router
// sub-package) a scatter-gather query router.
//
// Placement: the unit of distribution is the whole predicate. A shard
// holds EVERY triple of its predicates, which is what makes per-branch
// query push-down exact — a dual-simulation result depends only on the
// triples of the predicates the pattern mentions, so a shard that owns
// all of them answers exactly like a single node would. The assignment
// is a pure function (FNV-1a of the predicate modulo the shard count):
// the router, the partitioner and every daemon agree on placement with
// zero coordination, at the price of re-sharding when N changes —
// acceptable for an analytical store that is re-partitioned offline.
package cluster

import (
	"fmt"
	"strconv"
	"strings"

	"dualsim"
	"dualsim/internal/storage"
)

// ShardOf maps a predicate to its shard in [0, n): FNV-1a over the
// predicate bytes, reduced modulo the shard count. Implemented by hand
// (not hash/fnv) so the function is obviously identical wherever it is
// re-implemented — this exact constant pair is the contract between
// router and daemons.
func ShardOf(pred string, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(pred); i++ {
		h ^= uint32(pred[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}

// ShardSpec identifies one shard of an N-way partitioning.
type ShardSpec struct {
	Index int // in [0, N)
	N     int // total shards, >= 1
}

func (s ShardSpec) String() string { return fmt.Sprintf("%d/%d", s.Index, s.N) }

// Validate rejects out-of-range specs.
func (s ShardSpec) Validate() error {
	if s.N < 1 {
		return fmt.Errorf("cluster: shard count %d < 1", s.N)
	}
	if s.Index < 0 || s.Index >= s.N {
		return fmt.Errorf("cluster: shard index %d outside [0, %d)", s.Index, s.N)
	}
	return nil
}

// ParseShardSpec parses the "i/N" syntax of dualsimd's -shard flag.
func ParseShardSpec(s string) (ShardSpec, error) {
	idx, n, ok := strings.Cut(s, "/")
	if !ok {
		return ShardSpec{}, fmt.Errorf("cluster: shard spec %q is not i/N", s)
	}
	i, err := strconv.Atoi(strings.TrimSpace(idx))
	if err != nil {
		return ShardSpec{}, fmt.Errorf("cluster: shard index in %q: %v", s, err)
	}
	total, err := strconv.Atoi(strings.TrimSpace(n))
	if err != nil {
		return ShardSpec{}, fmt.Errorf("cluster: shard count in %q: %v", s, err)
	}
	spec := ShardSpec{Index: i, N: total}
	if err := spec.Validate(); err != nil {
		return ShardSpec{}, err
	}
	return spec, nil
}

// ShardStore cuts the shard's slice from a full store: every triple
// whose predicate places on spec.Index, over the predicates that hold
// one. It is the cut an exported slice is (storage.Store.Slice), so a
// shard's node ids follow the full store's order and nothing is
// re-interned or re-sorted. The result is an independent store — the
// state a shard daemon serves.
func ShardStore(st *dualsim.Store, spec ShardSpec) (*dualsim.Store, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	var owned []storage.PredID
	for p := range storage.PredID(st.NumPreds()) {
		if st.PredCount(p) > 0 && ShardOf(st.Pred(p), spec.N) == spec.Index {
			owned = append(owned, p)
		}
	}
	return st.Slice(owned), nil
}

// SplitDelta slices a delta by predicate placement — the router's write
// path: shard i receives exactly the adds/dels of its own predicates.
// Slices for shards the delta does not touch are zero-valued.
func SplitDelta(adds, dels []dualsim.Triple, n int) ([]dualsim.Delta, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: shard count %d < 1", n)
	}
	out := make([]dualsim.Delta, n)
	for _, t := range adds {
		i := ShardOf(t.P, n)
		out[i].Adds = append(out[i].Adds, t)
	}
	for _, t := range dels {
		i := ShardOf(t.P, n)
		out[i].Dels = append(out[i].Dels, t)
	}
	return out, nil
}
