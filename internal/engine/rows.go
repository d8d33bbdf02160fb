package engine

import (
	"slices"

	"dualsim/internal/storage"
)

// This file holds the executor's row layout — the flat block that every
// window, build side, seen-set and Result stores its rows in — and the
// hashed row set behind distinct and limit. Neither allocates per row.

// block is a run of rows of one width w, laid out flat: row i is
// ids[i·w : (i+1)·w]. The width is the schema width of whoever owns the
// block and is not stored; the row count is, so zero-width rows (the
// empty mapping µ∅, the rows of an all-constant BGP) are counted though
// they hold no ids. A block's only pointer is its array of ids, which
// holds none: the collector never scans the rows, and writing a row
// stores no pointer.
type block struct {
	n   int
	ids []storage.NodeID
}

// row returns row i of width w, capacity-limited so that an append to it
// copies instead of running into the next row.
func (b *block) row(i, w int) []storage.NodeID { return b.ids[i*w : (i+1)*w : (i+1)*w] }

// push appends one row of width w and returns it for the caller to fill:
// its ids are whatever the spare capacity held, so the caller writes all
// of them. The block must have room for it (see Iterator); push only
// lengthens ids in place, which stores no pointer.
//
//dualsim:hotpath
func (b *block) push(w int) []storage.NodeID {
	k := len(b.ids)
	b.n++
	b.ids = b.ids[:k+w]
	return b.ids[k:]
}

// add appends a copy of row.
func (b *block) add(row []storage.NodeID) {
	b.ids = append(b.ids, row...)
	b.n++
}

// truncate keeps the first n rows of width w.
func (b *block) truncate(n, w int) { b.n, b.ids = n, b.ids[:n*w] }

// A window an operator appends to may already hold rows of another
// width: a union's branch appends its narrower rows after the union's
// own. So an operator that revisits the rows it appended addresses them
// from where they start — row count n and id offset base as Next found
// the block — with tail, drops some of them with cut, and rewrites them
// with remap.

// tail returns row i of the rows of width w appended after base.
func (b *block) tail(base, i, w int) []storage.NodeID {
	o := base + i*w
	return b.ids[o : o+w : o+w]
}

// cut keeps k of the rows of width w appended after n rows and base ids.
func (b *block) cut(n, base, k, w int) { b.n, b.ids = n+k, b.ids[:base+k*w] }

// remap rewrites, in place, the rows appended after n rows and base ids
// — written at width w0 — as rows of width w ≥ w0: column c of an old row
// becomes column m[c] of its new row, and when w > w0 the columns m
// leaves out are Unbound. The block must have room for the new rows, and
// scratch for the old ones.
//
//dualsim:hotpath
func (b *block) remap(n, base, w0, w int, m []int, scratch []storage.NodeID) {
	k := b.n - n
	old := scratch[:k*w0]
	copy(old, b.ids[base:])
	b.ids = b.ids[:base+k*w]
	for i := range k {
		row := b.ids[base+i*w : base+(i+1)*w]
		if w > w0 {
			for j := range row {
				row[j] = Unbound
			}
		}
		for c, j := range m {
			row[j] = old[i*w0+c]
		}
	}
}

// hashSeed and hashMul drive the 64-bit row mix: a multiply-rotate per
// column and an xor-shift finalizer so the low bits — the table index —
// depend on every column.
const (
	hashSeed = 0x9e3779b97f4a7c15
	hashMul  = 0xff51afd7ed558ccd
)

func mix(h uint64, v storage.NodeID) uint64 {
	h = (h ^ uint64(v)) * hashMul
	return h ^ h>>29
}

// hashRow hashes every column of a row.
//
//dualsim:hotpath
func hashRow(row []storage.NodeID) uint64 {
	h := uint64(hashSeed)
	for _, v := range row {
		h = mix(h, v)
	}
	return h ^ h>>32
}

// hashCols hashes the columns idx of a row.
//
//dualsim:hotpath
func hashCols(row []storage.NodeID, idx []int) uint64 {
	h := uint64(hashSeed)
	for _, i := range idx {
		h = mix(h, row[i])
	}
	return h ^ h>>32
}

// rowSet is a set of rows of one width: the distinct rows, copied into a
// block the set owns, and an open-addressing table over them. A slot
// holds the row's index (+1) in its low 32 bits and the upper half of
// the row's hash in its high ones, so most mismatches are rejected
// without touching the row; on a hash match equality is verified against
// the stored row — a hash alone is never a key.
type rowSet struct {
	w     int
	rows  block
	table []uint64 // 0 = empty; else hash&^rowSetIdxMask | index+1
	hash  func([]storage.NodeID) uint64
}

const rowSetIdxMask = 1<<32 - 1

func newRowSet(w int) *rowSet { return &rowSet{w: w, hash: hashRow} }

// add copies row into the set unless an equal row is present, and
// reports whether it was added.
//
//dualsim:hotpath
func (s *rowSet) add(row []storage.NodeID) bool {
	if 2*s.rows.n >= len(s.table) {
		s.grow()
	}
	h := s.hash(row)
	mask := uint64(len(s.table) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := s.table[i]
		if e == 0 {
			s.rows.add(row)
			s.table[i] = h&^rowSetIdxMask | uint64(s.rows.n)
			return true
		}
		if e&^rowSetIdxMask == h&^rowSetIdxMask && slices.Equal(s.rows.row(int(e&rowSetIdxMask)-1, s.w), row) {
			return false
		}
	}
}

// grow doubles the table and reinserts the retained rows.
func (s *rowSet) grow() {
	s.table = make([]uint64, max(16, 2*len(s.table)))
	mask := uint64(len(s.table) - 1)
	for j := range s.rows.n {
		h := s.hash(s.rows.row(j, s.w))
		i := h & mask
		for s.table[i] != 0 {
			i = (i + 1) & mask
		}
		s.table[i] = h&^rowSetIdxMask | uint64(j+1)
	}
}
