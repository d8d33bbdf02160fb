package dualsim

import (
	"container/list"
	"sync"
)

// PlanCacheStats reports the state and traffic of a session's plan cache
// (see WithPlanCache). JSON tags are part of the serving wire format
// (see ExecStats).
//
//dualsim:wire
type PlanCacheStats struct {
	// Capacity is the configured maximum number of cached plans.
	Capacity int `json:"capacity"`
	// Size is the current number of cached plans.
	Size int `json:"size"`
	// Hits and Misses count Query/QueryStream lookups by outcome.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Evictions counts plans dropped by the LRU policy.
	Evictions int64 `json:"evictions,omitempty"`
	// Invalidations counts plans of superseded store epochs dropped
	// eagerly by Apply/Compact. (Stale plans can never be served either
	// way — keys carry the epoch — the eager drop just frees their
	// pinned snapshots.)
	Invalidations int64 `json:"invalidations,omitempty"`
}

// HitRate returns Hits / (Hits + Misses) in [0, 1], 0 with no traffic.
func (s PlanCacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// planKey scopes a query text, exactly as sent, to a store epoch, so a
// plan built before an Apply structurally misses afterwards instead of
// serving candidates of a superseded store. The map hashes and compares
// the text in place. Two texts that differ only in whitespace or
// comments are two entries, each planned once; the statement
// fingerprint (internal/stats) still groups them.
type planKey struct {
	epoch uint64
	text  string
}

// planCache is a mutex-guarded LRU of prepared queries keyed by epoch
// and query text.
type planCache struct {
	mu            sync.Mutex
	cap           int
	ll            *list.List // front = most recently used; Value is *planEntry
	items         map[planKey]*list.Element
	hits          int64
	misses        int64
	evictions     int64
	invalidations int64
	// minEpoch is the fence dropStaleEpochs leaves behind: inserts below
	// it are refused, so a plan built against a superseded snapshot cannot
	// slip in after the sweep and keep the dead store alive. Guarded by
	// mu, like the sweep itself.
	minEpoch uint64

	// buildMu serializes plan builds after a miss so concurrent Query
	// calls for the same text plan it once (single-flight): the second
	// caller blocks, re-probes, and finds the first caller's plan.
	buildMu sync.Mutex
}

type planEntry struct {
	key planKey
	pq  *PreparedQuery
}

func newPlanCache(capacity int) *planCache {
	return &planCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[planKey]*list.Element, capacity),
	}
}

// lookup returns the cached plan under key (updating recency), or nil.
// record controls whether the hit/miss counters move — the double-check
// probe under buildMu must not count the same miss twice.
func (c *planCache) lookup(key planKey, record bool) *PreparedQuery {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		if record {
			c.hits++
		}
		return el.Value.(*planEntry).pq
	}
	if record {
		c.misses++
	}
	return nil
}

// promoteMiss reclassifies one recorded miss as a hit: the double-check
// probe found a plan a concurrent caller had just built, so the request
// was served from the cache after all. Keeps Hits+Misses == lookups and
// the counters consistent with the per-request CacheHit flags.
func (c *planCache) promoteMiss() {
	c.mu.Lock()
	c.misses--
	c.hits++
	c.mu.Unlock()
}

// insert adds the plan under key, which the caller probed under buildMu
// and found absent, and evicts the least recently used entries beyond
// capacity. Plans of epochs below the invalidation fence are refused
// (see minEpoch): the cache only keeps plans of the published epoch.
func (c *planCache) insert(key planKey, pq *PreparedQuery) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if pq.snap.epoch < c.minEpoch {
		return
	}
	c.items[key] = c.ll.PushFront(&planEntry{key: key, pq: pq})
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*planEntry).key)
		c.evictions++
	}
}

// dropStaleEpochs removes every cached plan pinned to an epoch other
// than cur, releasing the superseded snapshots those plans keep alive.
// Called by Apply/Compact after the snapshot swap.
func (c *planCache) dropStaleEpochs(cur uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.minEpoch = cur
	var next *list.Element
	for el := c.ll.Front(); el != nil; el = next {
		next = el.Next()
		entry := el.Value.(*planEntry)
		if entry.pq.snap.epoch != cur {
			c.ll.Remove(el)
			delete(c.items, entry.key)
			c.invalidations++
		}
	}
}

func (c *planCache) stats() PlanCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return PlanCacheStats{
		Capacity:      c.cap,
		Size:          c.ll.Len(),
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
	}
}
