package dualsim

import (
	"container/list"
	"strconv"
	"strings"
	"sync"
	"unicode"
)

// PlanCacheStats reports the state and traffic of a session's plan cache
// (see WithPlanCache). The zero value is returned for sessions without a
// cache. JSON tags are part of the serving wire format (see ExecStats).
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

// cacheKey scopes a normalized query text to a store epoch, so a plan
// built before an Apply structurally misses afterwards instead of
// serving candidates of a superseded store.
func cacheKey(epoch uint64, normalized string) string {
	return strconv.FormatUint(epoch, 10) + "\x00" + normalized
}

// planCache is a mutex-guarded LRU of prepared queries keyed by
// normalized query text.
type planCache struct {
	mu            sync.Mutex
	cap           int
	ll            *list.List // front = most recently used; Value is *planEntry
	items         map[string]*list.Element
	hits          int64
	misses        int64
	evictions     int64
	invalidations int64
	// minEpoch is the fence dropStaleEpochs leaves behind: unpinned
	// inserts below it are refused, so a plan built against a snapshot
	// that was superseded mid-build cannot slip in after the sweep and
	// keep the dead store alive. Guarded by mu, like the sweep itself.
	minEpoch uint64

	// buildMu serializes plan builds after a miss so concurrent Query
	// calls for the same text plan it once (single-flight): the second
	// caller blocks, re-probes, and finds the first caller's plan.
	buildMu sync.Mutex
}

type planEntry struct {
	key string
	pq  *PreparedQuery
}

func newPlanCache(capacity int) *planCache {
	return &planCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element, capacity),
	}
}

// lookup returns the cached plan for key (updating recency), or nil.
// record controls whether the hit/miss counters move — the double-check
// probe under buildMu must not count the same miss twice.
func (c *planCache) lookup(key string, record bool) *PreparedQuery {
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

// insert adds (or refreshes) a plan and evicts the least recently used
// entries beyond capacity. Unpinned plans of epochs below the
// invalidation fence are refused (see minEpoch); pinned inserts — from
// Snapshot handles deliberately reading an old epoch — bypass the fence
// and live until the next sweep or LRU eviction.
func (c *planCache) insert(key string, pq *PreparedQuery, pinned bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !pinned && pq.snap.epoch < c.minEpoch {
		return
	}
	if el, ok := c.items[key]; ok {
		el.Value.(*planEntry).pq = pq
		c.ll.MoveToFront(el)
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

// normalizeQuery derives the plan-cache key: whitespace runs collapse to
// single spaces and comments drop, but only where the lexer itself would
// ignore them — quoted literals and <…> IRIs are copied verbatim, so two
// texts share a key only when they lex identically. Anything deeper
// (variable renaming, pattern reordering) would change plan identity and
// is deliberately out of scope.
func normalizeQuery(src string) string {
	var b strings.Builder
	b.Grow(len(src))
	pendingSpace := false
	emit := func(s string) {
		if pendingSpace {
			if b.Len() > 0 {
				b.WriteByte(' ')
			}
			pendingSpace = false
		}
		b.WriteString(s)
	}
	for i, n := 0, len(src); i < n; {
		c := src[i]
		switch {
		case c == '#': // comment to end of line: dropped, but separates tokens
			for i < n && src[i] != '\n' {
				i++
			}
			pendingSpace = true
		case unicode.IsSpace(rune(c)):
			pendingSpace = true
			i++
		case c == '<': // IRI: verbatim through '>' ('#' and spaces inside are significant)
			j := strings.IndexByte(src[i:], '>')
			if j < 0 {
				emit(src[i:])
				i = n
				break
			}
			emit(src[i : i+j+1])
			i += j + 1
		case c == '"' || c == '\'': // literal: verbatim through the matching quote, honoring escapes
			j := i + 1
			for j < n && src[j] != c {
				if src[j] == '\\' && j+1 < n {
					j++
				}
				j++
			}
			if j < n {
				j++ // include the closing quote
			}
			emit(src[i:j])
			i = j
		default:
			emit(src[i : i+1])
			i++
		}
	}
	return b.String()
}
