package dualsim

import (
	"container/list"
	"hash/maphash"
	"strings"
	"sync"
	"unicode"
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

// planKey scopes a query text to a store epoch, so a plan built before
// an Apply structurally misses afterwards instead of serving candidates
// of a superseded store. The text enters as the hash of its normalized
// token stream (see normTokens), computed in place; the entry keeps the
// normalized text, and a lookup compares it token by token — as in the
// executor's row sets, a hash alone is never a key.
type planKey struct {
	epoch uint64
	hash  uint64
}

// planCache is a mutex-guarded LRU of prepared queries keyed by epoch
// and normalized query text.
type planCache struct {
	mu            sync.Mutex
	cap           int
	seed          maphash.Seed
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
	key  planKey
	text string // normalizeQuery of the text the plan was built from
	pq   *PreparedQuery
}

func newPlanCache(capacity int) *planCache {
	return &planCache{
		cap:   capacity,
		seed:  maphash.MakeSeed(),
		ll:    list.New(),
		items: make(map[planKey]*list.Element, capacity),
	}
}

// key hashes src's normalized token stream without building it: two
// texts with equal normalizeQuery outputs get equal keys.
func (c *planCache) key(epoch uint64, src string) planKey {
	var h maphash.Hash
	h.SetSeed(c.seed)
	for t := (normTokens{src: src}); ; {
		p, ok := t.next()
		if !ok {
			break
		}
		h.WriteString(p)
	}
	return planKey{epoch: epoch, hash: h.Sum64()}
}

// lookup returns the cached plan of src under key (updating recency), or
// nil — also when the entry under key was built from another text.
// record controls whether the hit/miss counters move — the double-check
// probe under buildMu must not count the same miss twice.
func (c *planCache) lookup(key planKey, src string, record bool) *PreparedQuery {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok && sameNormalized(src, el.Value.(*planEntry).text) {
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

// insert adds (or refreshes) the plan of a normalized text and evicts
// the least recently used entries beyond capacity. An entry of another
// text under the same key — a hash collision — is replaced. Plans of
// epochs below the invalidation fence are refused (see minEpoch): the
// cache only keeps plans of the published epoch.
func (c *planCache) insert(key planKey, text string, pq *PreparedQuery) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if pq.snap.epoch < c.minEpoch {
		return
	}
	if el, ok := c.items[key]; ok {
		*el.Value.(*planEntry) = planEntry{key: key, text: text, pq: pq}
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&planEntry{key: key, text: text, pq: pq})
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

// normalizeQuery is the text a plan-cache entry keeps: whitespace runs
// collapse to single spaces and comments drop, but only where the lexer
// itself would ignore them — quoted literals and <…> IRIs are copied
// verbatim, so two texts share an entry only when they lex identically.
// Anything deeper (variable renaming, pattern reordering) would change
// plan identity and is deliberately out of scope.
func normalizeQuery(src string) string {
	var b strings.Builder
	b.Grow(len(src))
	for t := (normTokens{src: src}); ; {
		p, ok := t.next()
		if !ok {
			return b.String()
		}
		b.WriteString(p)
	}
}

// sameNormalized reports whether normalizeQuery(src) == norm, walking
// src's token stream against norm without building the former.
func sameNormalized(src, norm string) bool {
	for t := (normTokens{src: src}); ; {
		p, ok := t.next()
		if !ok {
			return norm == ""
		}
		if !strings.HasPrefix(norm, p) {
			return false
		}
		norm = norm[len(p):]
	}
}

// normTokens walks the normalized form of a query text in pieces whose
// concatenation is normalizeQuery's output: verbatim stretches of the
// source, and the single spaces that stand for the whitespace runs and
// comments between two stretches. A stretch runs through IRIs, literals
// and lone ' ' separators, which the normalized form keeps as they are,
// so typical text comes in a few long pieces. Building, hashing and
// comparing the normalized text all read this one stream.
type normTokens struct {
	src     string
	i       int
	space   bool // whitespace or a comment was skipped since the last piece
	started bool // a stretch was returned: a separator before the first is dropped
}

// next returns the next piece; false at the end of src.
func (t *normTokens) next() (string, bool) {
	src, n := t.src, len(t.src)
	for t.i < n {
		c := src[t.i]
		if c == '#' { // comment to end of line: dropped, but separates tokens
			for t.i < n && src[t.i] != '\n' {
				t.i++
			}
		} else if byteClass[c] == spaceByte {
			t.i++
		} else {
			break
		}
		t.space = true
	}
	if t.i == n {
		return "", false
	}
	if t.space {
		t.space = false
		if t.started {
			return " ", true
		}
	}
	t.started = true
	start, j := t.i, t.i
stretch:
	for j < n {
		switch c := src[j]; {
		case byteClass[c] == plainByte:
			j++
		case c == '<': // IRI: verbatim through '>' ('#' and spaces inside are significant)
			if k := strings.IndexByte(src[j:], '>'); k >= 0 {
				j += k + 1
			} else {
				j = n
			}
		case c == '"' || c == '\'': // literal: verbatim through the matching quote, honoring escapes
			for j++; j < n && src[j] != c; j++ {
				if src[j] == '\\' && j+1 < n {
					j++
				}
			}
			if j < n {
				j++ // include the closing quote
			}
		case c == ' ' && j+1 < n && src[j+1] != '#' && byteClass[src[j+1]] != spaceByte:
			j++ // a lone space between two tokens is already normalized
		default: // a whitespace run or a comment: the separator is the next piece
			break stretch
		}
	}
	t.i = j
	return src[start:j], true
}

// byteClass sorts the bytes for normTokens: whitespace (each byte
// unicode.IsSpace accepts as a rune), the bytes that open a comment, an
// IRI or a literal, and the plain rest, which a verbatim run continues
// through.
var byteClass = func() (t [256]uint8) {
	for c := range t {
		switch {
		case unicode.IsSpace(rune(c)):
			t[c] = spaceByte
		case c == '#' || c == '<' || c == '"' || c == '\'':
			t[c] = openByte
		}
	}
	return t
}()

const (
	plainByte = iota
	spaceByte
	openByte
)
