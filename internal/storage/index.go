package storage

import (
	"math/bits"

	"dualsim/internal/bitmat"
)

// predIndex holds one predicate's triples once, as its adjacency pair: F's
// rows are the subjects and its column ids psoO, the PSO order's object
// column; B's rows are the objects and its column ids the POS order's
// subject column. psoS completes the PSO order — position i is the triple
// (psoS[i], p, psoO[i]), the position pruning masks address — and the row
// directories replace a search of a sorted key column: a posting list is
// a contiguous run of a column, found by offset and read in place. A
// predicate without triples has no adjacency of its own (Store.Matrices
// hands out the store's shared empty pair).
type predIndex struct {
	psoS, psoO []NodeID // sorted by (subject, object)
	adj        bitmat.Pair
}

// newPredIndex is the one index constructor: FromTriples,
// RestrictByMask, Patch, Compact, Slice, Union and the snapshot decoder
// all hand it a predicate's PSO run as two parallel columns — sorted by
// (subject, object), deduplicated, owned by the index from here on — and
// the size n of the node universe. It lays out the POS order and both
// row directories; the POS order's object column is only the input of
// B's directory.
func newPredIndex(n int, s, o []NodeID) predIndex {
	if len(s) == 0 {
		return predIndex{}
	}
	objKeys, posS := make([]NodeID, len(s)), make([]NodeID, len(s))
	sortByObject(s, o, objKeys, posS)
	return predIndex{psoS: s, psoO: o, adj: bitmat.Pair{
		F: bitmat.NewCSR(n, s, o),
		B: bitmat.NewCSR(n, objKeys, posS),
	}}
}

// newPredIndexFromPairs splits a sorted, deduplicated pair run into
// columns for newPredIndex — the form FromTriples and Union sort in.
func newPredIndexFromPairs(n int, pso []pair) predIndex {
	cols := make([]NodeID, 2*len(pso))
	s, o := cols[:len(pso):len(pso)], cols[len(pso):]
	for i, e := range pso {
		s[i], o[i] = e.a, e.b
	}
	return newPredIndex(n, s, o)
}

// widen extends every index's adjacency to an n-node universe, sharing
// its columns and offsets (bitmat.CSR.Widen).
func widen(byPred []predIndex, n int) {
	for p := range byPred {
		if byPred[p].adj.F != nil {
			byPred[p].adj = byPred[p].adj.Widen(n)
		}
	}
}

const (
	// posInsertionMax: below this many pairs an insertion sort beats
	// setting up distribution passes.
	posInsertionMax = 48
	// posMaxDigitBits caps a distribution pass at 2048 counters (8 KB,
	// on the stack).
	posMaxDigitBits = 11
)

// sortByObject writes the (object, subject) order of a PSO run into
// (outO, outS). PSO order is ascending (s, o), so a stable sort on the
// object alone yields ascending (o, s): no comparison of pairs is needed.
// The sort is an LSD radix sort whose digit is sized by the run — about
// log2(n) bits, at most posMaxDigitBits — over the bits the largest
// object id actually uses, so a per-query pruned store with a handful of
// kept triples pays O(kept), never a sweep over the term space.
func sortByObject(s, o, outO, outS []NodeID) {
	n := len(s)
	if n < posInsertionMax {
		for i := 0; i < n; i++ {
			ko, ks := o[i], s[i]
			j := i
			for j > 0 && outO[j-1] > ko {
				outO[j], outS[j] = outO[j-1], outS[j-1]
				j--
			}
			outO[j], outS[j] = ko, ks
		}
		return
	}
	maxO := NodeID(0)
	for _, v := range o {
		maxO = max(maxO, v)
	}
	keyBits := max(1, bits.Len32(maxO))
	digit := min(bits.Len(uint(n)), posMaxDigitBits)
	passes := (keyBits + digit - 1) / digit
	digit = (keyBits + passes - 1) / passes

	// Ping-pong between the output and one scratch buffer so that the
	// last pass lands in the output.
	var tmpO, tmpS []NodeID
	if passes > 1 {
		tmp := make([]NodeID, 2*n)
		tmpO, tmpS = tmp[:n], tmp[n:]
	}
	srcO, srcS := o, s
	toOutput := passes%2 == 1
	var counts [1 << posMaxDigitBits]uint32
	mask := NodeID(1)<<digit - 1
	for p := 0; p < passes; p++ {
		dstO, dstS := tmpO, tmpS
		if toOutput {
			dstO, dstS = outO, outS
		}
		shift := uint(p * digit)
		c := counts[:1<<digit]
		clear(c)
		for _, k := range srcO {
			c[(k>>shift)&mask]++
		}
		sum := uint32(0)
		for i, cnt := range c {
			c[i] = sum
			sum += cnt
		}
		for i, k := range srcO {
			d := (k >> shift) & mask
			j := c[d]
			c[d] = j + 1
			dstO[j], dstS[j] = k, srcS[i]
		}
		srcO, srcS = dstO, dstS
		toOutput = !toOutput
	}
}
