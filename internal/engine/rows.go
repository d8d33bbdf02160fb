package engine

import (
	"slices"

	"dualsim/internal/storage"
)

// This file holds the executor's two row containers: the slab operators
// carve output rows from, and the hashed row set behind distinct and
// limit. Neither allocates per row.

// Slab chunk sizes, in node ids. Chunks start small and double, so a
// one-row query pays for 64 bytes and a 10⁵-row one for a few dozen
// allocations.
const (
	slabFirstChunk = 16
	slabMaxChunk   = 4096
)

// slab is the per-execution row allocator. Rows are carved off the front
// of the current chunk as buf[:n:n] — the capacity limit means a caller's
// append copies instead of running into the neighbouring row — and
// nothing is ever recycled, so a row handed out stays valid (and keeps
// its chunk alive) for as long as anyone holds it: the Iterator ownership
// contract holds without a copy per consumer.
type slab struct {
	free []storage.NodeID
	next int // size of the next chunk
}

// alloc returns a fresh zeroed row of n ids.
//
//dualsim:hotpath
func (s *slab) alloc(n int) []storage.NodeID {
	if n > len(s.free) {
		s.grow(n)
	}
	row := s.free[:n:n]
	s.free = s.free[n:]
	return row
}

// grow starts a new chunk of at least n ids; what is left of the old one
// (less than a row) is abandoned.
func (s *slab) grow(n int) {
	s.next = min(max(2*s.next, slabFirstChunk), slabMaxChunk)
	s.free = make([]storage.NodeID, max(s.next, n))
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

// rowSet is a set of rows of one width: an open-addressing table of
// indexes into the retained rows. A slot holds the row's index plus the
// upper half of its hash, so most mismatches are rejected without
// touching the row; on a hash match equality is verified against the
// stored row — a hash alone is never a key. The set retains the rows it
// is given (no copy); rows are read-only by contract.
type rowSet struct {
	rows  [][]storage.NodeID
	table []uint64 // 0 = empty; else hash&^idxMask | index+1
	hash  func([]storage.NodeID) uint64
}

const rowSetIdxMask = 1<<32 - 1

func newRowSet() *rowSet { return &rowSet{hash: hashRow} }

// add inserts row unless an equal row is present, and reports whether it
// was inserted.
//
//dualsim:hotpath
func (s *rowSet) add(row []storage.NodeID) bool {
	if 2*len(s.rows) >= len(s.table) {
		s.grow()
	}
	h := s.hash(row)
	mask := uint64(len(s.table) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := s.table[i]
		if e == 0 {
			s.rows = append(s.rows, row)
			s.table[i] = h&^rowSetIdxMask | uint64(len(s.rows))
			return true
		}
		if e&^rowSetIdxMask == h&^rowSetIdxMask && slices.Equal(s.rows[e&rowSetIdxMask-1], row) {
			return false
		}
	}
}

// grow doubles the table and reinserts the retained rows.
func (s *rowSet) grow() {
	s.table = make([]uint64, max(16, 2*len(s.table)))
	mask := uint64(len(s.table) - 1)
	for j, row := range s.rows {
		h := s.hash(row)
		i := h & mask
		for s.table[i] != 0 {
			i = (i + 1) & mask
		}
		s.table[i] = h&^rowSetIdxMask | uint64(j+1)
	}
}
