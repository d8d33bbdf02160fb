package storage

import (
	"fmt"
	"hash/maphash"
	"math"
	"slices"
	"sync"
	"unsafe"

	"dualsim/internal/rdf"
)

// dict is the shared, append-only term and predicate dictionary of a
// store lineage. A store FromTriples makes and the snapshots derived
// from it by RestrictByMask and Patch all point at the same dict, so a
// node or predicate id decodes to the same term in every snapshot;
// Compact, Slice and Union start a lineage with a dict of their own. Each
// snapshot additionally records how much of the dictionary it can see,
// so terms interned by a later patch are invisible to (and unreachable
// from) earlier snapshots.
//
// Terms live in four flat columns, with no Go string or pointer per term:
// the values back to back in one byte arena, a uint32 offset column
// (term id's value is arena[offsets[id]:offsets[id+1]]), one kind byte
// per term, and an open-addressed table of id+1 per slot (0 is empty),
// keyed by a maphash of (kind, value) and compared through the arena.
// Ids are handed out in insertion order.
//
// Interning takes the write lock; lookups take the read lock. Column
// elements, once appended, are never mutated, so snapshots keep
// lock-free prefix views (termView) of them and of preds.
type dict struct {
	mu sync.RWMutex

	arena   []byte
	offsets []uint32 // one more than there are terms; offsets[0] is 0
	kinds   []rdf.Kind
	table   []uint32 // a power of two long, at most 3/4 full
	seed    maphash.Seed

	preds  []string
	predID map[string]PredID
}

// minTable is the id table's length in an empty dictionary.
const minTable = 16

func newDict() *dict {
	return &dict{
		offsets: []uint32{0},
		table:   make([]uint32, minTable),
		seed:    maphash.MakeSeed(),
		predID:  make(map[string]PredID),
	}
}

// fork returns a dictionary of its own holding exactly the terms and
// predicates of the views, under the same ids: a new lineage that
// starts where a snapshot of d stands. Interning into the fork leaves d
// as it was.
func (d *dict) fork(terms termView, preds []string) *dict {
	n := terms.len()
	f := &dict{
		arena:   slices.Clone(terms.arena[:terms.offsets[n]]),
		offsets: slices.Clone(terms.offsets[:n+1]),
		kinds:   slices.Clone(terms.kinds),
	}
	d.mu.RLock()
	if len(d.kinds) == n { // d's id table indexes exactly these terms
		f.table, f.seed = slices.Clone(d.table), d.seed
	}
	d.mu.RUnlock()
	f.finish(preds)
	return f
}

// finish completes a dictionary whose term columns are filled: it takes
// a copy of preds, each under its index as id, and builds the id table
// over the terms unless f already has one.
func (f *dict) finish(preds []string) {
	f.preds = slices.Clone(preds)
	f.predID = make(map[string]PredID, len(preds))
	for id, p := range f.preds {
		f.predID[p] = PredID(id)
	}
	if f.table == nil {
		f.seed = maphash.MakeSeed()
		f.reindex(tableSize(len(f.kinds)))
	}
}

// termView is a prefix view of a dictionary's term columns: the first
// len(kinds) terms, as one snapshot sees them.
type termView struct {
	arena   []byte
	offsets []uint32
	kinds   []rdf.Kind
}

func (v termView) len() int { return len(v.kinds) }

func (v termView) kind(id NodeID) rdf.Kind { return v.kinds[id] }

// value returns term id's value, aliasing the arena: the bytes under a
// published prefix never change, so the string stays valid for good.
//
//dualsim:hotpath
func (v termView) value(id NodeID) string {
	lo, hi := v.offsets[id], v.offsets[id+1]
	if lo == hi {
		return ""
	}
	return unsafe.String(&v.arena[lo], hi-lo)
}

// all returns the view of every term interned so far; callers hold d.mu.
func (d *dict) all() termView {
	return termView{arena: d.arena, offsets: d.offsets, kinds: d.kinds}
}

// views returns prefix snapshots of the term and predicate tables. The
// returned slice headers are stable: later appends may grow the shared
// backing arrays beyond their length but never touch the prefix.
func (d *dict) views() (termView, []string) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.all(), d.preds
}

func (d *dict) hash(k rdf.Kind, v string) uint64 {
	return maphash.String(d.seed, v) ^ uint64(k)*0x9e3779b97f4a7c15
}

// find returns the id of the term (k, v), or the empty slot where it
// would go. The caller holds d.mu.
//
//dualsim:hotpath
func (d *dict) find(k rdf.Kind, v string) (id NodeID, slot int, ok bool) {
	terms, mask := d.all(), len(d.table)-1
	for i := int(d.hash(k, v)) & mask; ; i = (i + 1) & mask {
		e := d.table[i]
		if e == 0 {
			return 0, i, false
		}
		if id := e - 1; terms.kind(id) == k && terms.value(id) == v {
			return id, i, true
		}
	}
}

func (d *dict) lookupTerm(k rdf.Kind, v string) (NodeID, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	id, _, ok := d.find(k, v)
	return id, ok
}

// errArenaFull reports a term that would take the arena past what a
// uint32 offset addresses.
var errArenaFull = fmt.Errorf("storage: dictionary term values would exceed %d bytes", uint64(math.MaxUint32))

// intern, internTerm and internPred require d.mu held for writing: once
// per FromTriples batch, once per patched triple, once per united part. A
// failed intern may leave earlier terms of its batch interned, which is
// harmless: the dictionary is append-only and an id no triple uses is
// never read.
func (d *dict) intern(t rdf.Triple) (PredID, pair, error) {
	s, err := d.internTerm(t.S.Kind, t.S.Value)
	if err != nil {
		return 0, pair{}, err
	}
	o, err := d.internTerm(t.O.Kind, t.O.Value)
	return d.internPred(t.P), pair{a: s, b: o}, err
}

func (d *dict) internTerm(k rdf.Kind, v string) (NodeID, error) {
	id, slot, ok := d.find(k, v)
	if ok {
		return id, nil
	}
	if uint64(len(d.arena))+uint64(len(v)) > math.MaxUint32 {
		return 0, errArenaFull
	}
	id = push(d, k, v)
	d.table[slot] = id + 1
	if 4*len(d.kinds) > 3*len(d.table) {
		d.reindex(2 * len(d.table))
	}
	return id, nil
}

// push appends a term to the columns, copying v into the arena, and
// returns its id. The caller has checked that v fits the arena, and the
// id table is the caller's to update.
func push[V string | []byte](d *dict, k rdf.Kind, v V) NodeID {
	id := NodeID(len(d.kinds))
	d.arena = append(d.arena, v...)
	d.offsets = append(d.offsets, uint32(len(d.arena)))
	d.kinds = append(d.kinds, k)
	return id
}

// reindex rebuilds the id table at the given length (a power of two
// that keeps the load at most 3/4) from the columns. It reports false,
// leaving the table partial, when two terms are equal — possible only
// in columns a snapshot body filled.
func (d *dict) reindex(size int) bool {
	d.table = make([]uint32, size)
	terms := d.all()
	for id := range NodeID(terms.len()) {
		_, slot, dup := d.find(terms.kind(id), terms.value(id))
		if dup {
			return false
		}
		d.table[slot] = id + 1
	}
	return true
}

// tableSize returns the id table length for n terms: the least power of
// two, at least minTable, that n fill at most 3/4 of.
func tableSize(n int) int {
	size := minTable
	for 4*n > 3*size {
		size *= 2
	}
	return size
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

func (d *dict) lookupPred(p string) (PredID, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	id, ok := d.predID[p]
	return id, ok
}
