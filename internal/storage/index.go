package storage

import "math/bits"

// predIndex holds one predicate's triples in the two sort orders, each as
// a pair of parallel columns, plus statistics. Position i of the PSO
// order is the triple (psoS[i], p, psoO[i]); position i of the POS order
// is (posS[i], p, posO[i]). The column a lookup searches is therefore a
// dense 4-byte-stride array, and the posting list it finds is a
// contiguous run of the other column that callers read in place.
type predIndex struct {
	psoS, psoO []NodeID // sorted by (subject, object)
	posO, posS []NodeID // sorted by (object, subject)
	distinctS  int
	distinctO  int
}

// newPredIndex is the one index constructor: Build, Restrict,
// RestrictByMask, Patch and the snapshot decoder all hand it a
// predicate's PSO run as two parallel columns — sorted by (subject,
// object), deduplicated, owned by the index from here on — and it lays
// out the POS order and the statistics.
func newPredIndex(s, o []NodeID) predIndex {
	n := len(s)
	if n == 0 {
		return predIndex{}
	}
	pos := make([]NodeID, 2*n)
	ix := predIndex{psoS: s, psoO: o, posO: pos[:n:n], posS: pos[n:]}
	sortByObject(s, o, ix.posO, ix.posS)
	ix.distinctS = countRuns(ix.psoS)
	ix.distinctO = countRuns(ix.posO)
	return ix
}

// newPredIndexFromPairs splits a sorted, deduplicated pair run into
// columns for newPredIndex — the form Build and Patch sort in.
func newPredIndexFromPairs(pso []pair) predIndex {
	n := len(pso)
	cols := make([]NodeID, 2*n)
	s, o := cols[:n:n], cols[n:]
	for i, e := range pso {
		s[i], o[i] = e.a, e.b
	}
	return newPredIndex(s, o)
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
// (posO, posS). PSO order is ascending (s, o), so a stable sort on the
// object alone yields ascending (o, s): no comparison of pairs is needed.
// The sort is an LSD radix sort whose digit is sized by the run — about
// log2(n) bits, at most posMaxDigitBits — over the bits the largest
// object id actually uses, so a per-query pruned store with a handful of
// kept triples pays O(kept), never a sweep over the term space.
func sortByObject(s, o, posO, posS []NodeID) {
	n := len(s)
	if n < posInsertionMax {
		for i := 0; i < n; i++ {
			ko, ks := o[i], s[i]
			j := i
			for j > 0 && posO[j-1] > ko {
				posO[j], posS[j] = posO[j-1], posS[j-1]
				j--
			}
			posO[j], posS[j] = ko, ks
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
			dstO, dstS = posO, posS
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

// countRuns returns the number of distinct values of a sorted column.
func countRuns(col []NodeID) int {
	n := 0
	for i, v := range col {
		if i == 0 || v != col[i-1] {
			n++
		}
	}
	return n
}

// lowerBound returns the first position in col[lo:hi] (sorted) whose
// value is ≥ key, or hi.
//
//dualsim:hotpath
func lowerBound(col []NodeID, lo, hi int, key NodeID) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if col[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// runScanMax bounds the forward scan of equalRun before it falls back
// to a second binary search: posting lists are mostly a handful of
// entries, but a hub node's run can be most of the column.
const runScanMax = 16

// equalRun returns the bounds [lo, hi) of the run of key in the sorted
// column: one binary search for its start and a short forward scan for
// its end.
//
//dualsim:hotpath
func equalRun(col []NodeID, key NodeID) (lo, hi int) {
	lo = lowerBound(col, 0, len(col), key)
	hi = lo
	stop := min(len(col), lo+runScanMax)
	for hi < stop && col[hi] == key {
		hi++
	}
	if hi == stop && hi < len(col) && col[hi] == key {
		// Long run: bisect for the first larger id (none is larger than
		// the largest id).
		if key == ^NodeID(0) {
			return lo, len(col)
		}
		hi = lowerBound(col, hi, len(col), key+1)
	}
	return lo, hi
}
