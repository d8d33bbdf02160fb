// Package bitvec provides fixed-length bit-vectors used to represent the
// rows of the characteristic function χS of a dual-simulation candidate
// relation, as well as per-label node summaries (the vectors f_a and b_a of
// the paper's inequality (13)).
//
// Two representations are provided:
//
//   - Vector: a dense, word-packed bit-vector. This is the working
//     representation for χS rows and multiplication results.
//   - Compressed: a run-length ("gap-length") encoded bit-vector in the
//     spirit of EWAH/WAH. The paper (§3.3, §5.1) points out that gap-length
//     encoded storage keeps the adjacency matrices small; Compressed is the
//     at-rest format for matrix rows and summaries.
//
// All operations treat vectors as having a fixed logical length Len; bits
// at positions ≥ Len are always zero.
//
// A Vector carries a summary level: one bit per 64-bit word, with the
// invariant "summary bit clear ⇒ word is zero" (a set summary bit
// promises nothing). Every whole-vector operation walks the summary and
// touches only the words it admits, so a pass over a vector with a handful
// of set bits costs n/4096 summary words instead of n/64 data words; a
// full summary word is served by a straight 64-word loop, so dense vectors
// pay nothing for it. Mutators that visit a word anyway clear its summary
// bit when the word becomes zero, which keeps the summary tight as a
// candidate set decays. Only this package writes words (Words is a
// read-only view), so the invariant has one owner.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

const (
	wordBits = 64
	wordLog  = 6
	wordMask = wordBits - 1
	full     = ^uint64(0)
)

// Vector is a dense bit-vector of fixed length.
//
// The zero value is an empty vector of length 0; use New for a sized one.
type Vector struct {
	words []uint64
	sum   []uint64 // bit w clear ⇒ words[w] == 0; bits ≥ len(words) are clear
	n     int
}

// New returns a zeroed Vector with n bits.
func New(n int) *Vector {
	if n < 0 {
		panic("bitvec: negative length")
	}
	v := &Vector{n: n}
	v.words, v.sum = alloc(n)
	return v
}

// alloc carves the words and their summary for n bits from one allocation.
func alloc(n int) (words, sum []uint64) {
	w := wordsFor(n)
	buf := make([]uint64, w+wordsFor(w))
	return buf[:w:w], buf[w:]
}

// NewFull returns a Vector with n bits, all set — the vector 1 used to
// initialize S0 = V1 × V2 (inequality (12) of the paper).
func NewFull(n int) *Vector {
	v := New(n)
	v.Fill()
	return v
}

// FromBits returns a Vector of length n whose set positions are given.
func FromBits(n int, positions ...int) *Vector {
	v := New(n)
	for _, p := range positions {
		v.Set(p)
	}
	return v
}

func wordsFor(n int) int { return (n + wordBits - 1) / wordBits }

// Len returns the logical number of bits.
func (v *Vector) Len() int { return v.n }

// Set sets bit i to 1.
//
//dualsim:hotpath
func (v *Vector) Set(i int) {
	v.boundsCheck(i)
	w := i >> wordLog
	v.words[w] |= 1 << uint(i&wordMask)
	v.sum[w>>wordLog] |= 1 << uint(w&wordMask)
}

// SetAll sets every listed bit. The summary is written once per stretch
// of ids that share a summary word — once in all for an adjacency row,
// whose ids are sorted and close — not once per bit.
//
//dualsim:hotpath
func (v *Vector) SetAll(ids []uint32) {
	k, s := 0, uint64(0) // summary bits not yet written, all of word k
	for _, id := range ids {
		v.boundsCheck(int(id))
		w := int(id >> wordLog)
		v.words[w] |= 1 << (id & wordMask)
		if w>>wordLog != k {
			v.sum[k] |= s
			k, s = w>>wordLog, 0
		}
		s |= 1 << uint(w&wordMask)
	}
	if s != 0 {
		v.sum[k] |= s
	}
}

// Clear sets bit i to 0.
//
//dualsim:hotpath
func (v *Vector) Clear(i int) {
	v.boundsCheck(i)
	v.words[i>>wordLog] &^= 1 << uint(i&wordMask)
}

// Get reports whether bit i is set.
//
//dualsim:hotpath
func (v *Vector) Get(i int) bool {
	v.boundsCheck(i)
	return v.words[i>>wordLog]&(1<<uint(i&wordMask)) != 0
}

func (v *Vector) boundsCheck(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

// Fill sets every bit.
func (v *Vector) Fill() {
	for i := range v.words {
		v.words[i] = full
	}
	for k := range v.sum {
		v.sum[k] = full
	}
	v.trim()
}

// Zero clears every bit.
//
//dualsim:hotpath
func (v *Vector) Zero() {
	for k, s := range v.sum {
		v.sum[k] = 0
		if s == full {
			clear(v.words[k<<wordLog : k<<wordLog+wordBits])
			continue
		}
		for ; s != 0; s &= s - 1 {
			v.words[k<<wordLog|bits.TrailingZeros64(s)] = 0
		}
	}
}

// trim clears the bits beyond the logical length in the last word, and
// the summary bits beyond the last word.
func (v *Vector) trim() {
	if rem := v.n & wordMask; rem != 0 {
		v.words[len(v.words)-1] &= 1<<uint(rem) - 1
	}
	if rem := len(v.words) & wordMask; rem != 0 {
		v.sum[len(v.sum)-1] &= 1<<uint(rem) - 1
	}
}

// Reset reinitializes v to a zeroed vector of n bits, reusing the
// backing array when it is large enough. It is the re-use hook for
// pooled vectors (sync.Pool arenas hand out vectors of varying length).
func (v *Vector) Reset(n int) {
	if n < 0 {
		panic("bitvec: negative length")
	}
	if w := wordsFor(n); cap(v.words) < w {
		v.words, v.sum = alloc(n)
	} else {
		// Words and summary beyond the current length are zero (they were
		// zeroed before every earlier shrink), so zeroing what is visible
		// leaves the whole backing array clean.
		v.Zero()
		v.words, v.sum = v.words[:w], v.sum[:wordsFor(w)]
	}
	v.n = n
}

// Clone returns a deep copy.
func (v *Vector) Clone() *Vector {
	w := &Vector{n: v.n}
	w.words, w.sum = alloc(v.n)
	copy(w.words, v.words)
	copy(w.sum, v.sum)
	return w
}

// CopyFrom overwrites v with the contents of w. The lengths must match.
//
//dualsim:hotpath
func (v *Vector) CopyFrom(w *Vector) {
	v.sameLen(w)
	for k, ws := range w.sum {
		m := v.sum[k] | ws
		v.sum[k] = ws
		if m == full {
			copy(v.words[k<<wordLog:k<<wordLog+wordBits], w.words[k<<wordLog:])
			continue
		}
		for ; m != 0; m &= m - 1 {
			i := k<<wordLog | bits.TrailingZeros64(m)
			v.words[i] = w.words[i]
		}
	}
}

// CopyWordRange overwrites the 64-bit words [lo, hi) of v with those of
// w and leaves the rest of v alone — how the parallel kernels hand each
// worker its slice of a driving vector. The lengths must match.
//
//dualsim:hotpath
func (v *Vector) CopyWordRange(w *Vector, lo, hi int) {
	v.sameLen(w)
	for i := lo; i < hi; i++ {
		v.words[i] = w.words[i]
		if w.words[i] != 0 {
			v.sum[i>>wordLog] |= 1 << uint(i&wordMask)
		}
	}
}

func (v *Vector) sameLen(w *Vector) {
	if v.n != w.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", v.n, w.n))
	}
}

// nonZero returns 1 if x != 0 and 0 otherwise, without a branch.
func nonZero(x uint64) uint64 { return (x | -x) >> 63 }

// And replaces v with v ∧ w and reports whether v changed. This is the
// component-wise conjunction used in the SOI update step
// χS'(v) := χS(v) ∧ r.
//
//dualsim:hotpath
func (v *Vector) And(w *Vector) bool {
	v.sameLen(w)
	diff := uint64(0)
	for k, s := range v.sum {
		keep := uint64(0)
		if s == full {
			vw, ww := v.words[k<<wordLog:k<<wordLog+wordBits], w.words[k<<wordLog:k<<wordLog+wordBits]
			for j, old := range vw {
				vw[j] = old & ww[j]
				diff |= old ^ vw[j]
				keep |= nonZero(vw[j]) << uint(j)
			}
			s = 0
		}
		for ; s != 0; s &= s - 1 {
			i := k<<wordLog | bits.TrailingZeros64(s)
			old := v.words[i]
			v.words[i] = old & w.words[i]
			diff |= old ^ v.words[i]
			keep |= nonZero(v.words[i]) << uint(i&wordMask)
		}
		v.sum[k] = keep
	}
	return diff != 0
}

// Or replaces v with v ∨ w and reports whether v changed.
//
//dualsim:hotpath
func (v *Vector) Or(w *Vector) bool {
	v.sameLen(w)
	diff := uint64(0)
	for k, s := range w.sum {
		v.sum[k] |= s
		for ; s != 0; s &= s - 1 {
			i := k<<wordLog | bits.TrailingZeros64(s)
			old := v.words[i]
			v.words[i] = old | w.words[i]
			diff |= old ^ v.words[i]
		}
	}
	return diff != 0
}

// AndNot replaces v with v ∧ ¬w and reports whether v changed.
//
//dualsim:hotpath
func (v *Vector) AndNot(w *Vector) bool {
	v.sameLen(w)
	diff := uint64(0)
	for k, s := range v.sum {
		for m := s & w.sum[k]; m != 0; m &= m - 1 {
			i := k<<wordLog | bits.TrailingZeros64(m)
			old := v.words[i]
			v.words[i] = old &^ w.words[i]
			diff |= old ^ v.words[i]
			if v.words[i] == 0 {
				s &^= m & -m
			}
		}
		v.sum[k] = s
	}
	return diff != 0
}

// Retain clears every set bit i for which keep(i) is false and returns
// the number of bits left — the in-place form of the column-wise ×b
// update, which walks the candidates and drops those without a partner.
// keep may read v itself: it sees a bit it has already rejected either
// still set or cleared, never a bit that was not set on entry.
//
//dualsim:hotpath
func (v *Vector) Retain(keep func(i int) bool) int {
	count := 0
	for k, s := range v.sum {
		for m := s; m != 0; m &= m - 1 {
			w := k<<wordLog | bits.TrailingZeros64(m)
			x := v.words[w]
			for y := x; y != 0; y &= y - 1 {
				if !keep(w<<wordLog | bits.TrailingZeros64(y)) {
					x &^= y & -y
				}
			}
			v.words[w] = x
			if x == 0 {
				s &^= m & -m
			}
			count += bits.OnesCount64(x)
		}
		v.sum[k] = s
	}
	return count
}

// Intersects reports whether v ∧ w has any set bit, i.e. the non-disjointness
// test of the paper's equation (4): F_a(v') ∩ χS(w) ≠ ∅.
//
//dualsim:hotpath
func (v *Vector) Intersects(w *Vector) bool {
	v.sameLen(w)
	for k, s := range v.sum {
		for s &= w.sum[k]; s != 0; s &= s - 1 {
			if i := k<<wordLog | bits.TrailingZeros64(s); v.words[i]&w.words[i] != 0 {
				return true
			}
		}
	}
	return false
}

// SubsetOf reports whether every set bit of v is also set in w — the
// component-wise ≤ of the paper's inequalities (10).
//
//dualsim:hotpath
func (v *Vector) SubsetOf(w *Vector) bool {
	v.sameLen(w)
	for k, s := range v.sum {
		for ; s != 0; s &= s - 1 {
			if i := k<<wordLog | bits.TrailingZeros64(s); v.words[i]&^w.words[i] != 0 {
				return false
			}
		}
	}
	return true
}

// Equal reports whether v and w contain exactly the same bits.
func (v *Vector) Equal(w *Vector) bool {
	if v.n != w.n {
		return false
	}
	for k, s := range v.sum {
		for s |= w.sum[k]; s != 0; s &= s - 1 {
			if i := k<<wordLog | bits.TrailingZeros64(s); v.words[i] != w.words[i] {
				return false
			}
		}
	}
	return true
}

// IsEmpty reports whether no bit is set.
func (v *Vector) IsEmpty() bool { return v.nextWord(0) < 0 }

// Count returns the number of set bits (population count).
//
//dualsim:hotpath
func (v *Vector) Count() int {
	c := 0
	for k, s := range v.sum {
		if s == full {
			for _, x := range v.words[k<<wordLog : k<<wordLog+wordBits] {
				c += bits.OnesCount64(x)
			}
			continue
		}
		for ; s != 0; s &= s - 1 {
			c += bits.OnesCount64(v.words[k<<wordLog|bits.TrailingZeros64(s)])
		}
	}
	return c
}

// nextWord returns the index of the first non-zero word at or after
// from, or -1.
//
//dualsim:hotpath
func (v *Vector) nextWord(from int) int {
	for k := from >> wordLog; k < len(v.sum); k++ {
		s := v.sum[k]
		if k == from>>wordLog {
			s &= full << uint(from&wordMask)
		}
		for ; s != 0; s &= s - 1 {
			if i := k<<wordLog | bits.TrailingZeros64(s); v.words[i] != 0 {
				return i
			}
		}
	}
	return -1
}

// Any returns the position of an arbitrary (the lowest) set bit, or -1.
//
//dualsim:hotpath
func (v *Vector) Any() int { return v.NextSet(0) }

// NextSet returns the position of the first set bit at or after i, or -1.
//
//dualsim:hotpath
func (v *Vector) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= v.n {
		return -1
	}
	w := i >> wordLog
	if x := v.words[w] >> uint(i&wordMask); x != 0 {
		return i + bits.TrailingZeros64(x)
	}
	if w = v.nextWord(w + 1); w < 0 {
		return -1
	}
	return w<<wordLog + bits.TrailingZeros64(v.words[w])
}

// ForEach calls fn for every set bit in ascending order. If fn returns
// false, iteration stops early.
//
//dualsim:hotpath
func (v *Vector) ForEach(fn func(i int) bool) {
	for k, s := range v.sum {
		for ; s != 0; s &= s - 1 {
			w := k<<wordLog | bits.TrailingZeros64(s)
			for x := v.words[w]; x != 0; x &= x - 1 {
				if !fn(w<<wordLog | bits.TrailingZeros64(x)) {
					return
				}
			}
		}
	}
}

// Bits returns the positions of all set bits in ascending order.
func (v *Vector) Bits() []int {
	out := make([]int, 0, v.Count())
	v.ForEach(func(i int) bool { out = append(out, i); return true })
	return out
}

// Words exposes the backing words, read-only: a caller that wrote a word
// would break the summary invariant. The parallel kernels use it to size
// their word ranges.
func (v *Vector) Words() []uint64 { return v.words }

// String renders the vector as a brace-enclosed list of set positions,
// e.g. "{0, 3, 17}".
func (v *Vector) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	v.ForEach(func(i int) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
		return true
	})
	b.WriteByte('}')
	return b.String()
}

// AndInto computes dst = a ∧ b without modifying a or b.
//
//dualsim:hotpath
func AndInto(dst, a, b *Vector) {
	a.sameLen(b)
	a.sameLen(dst)
	for k := range dst.sum {
		m := a.sum[k] & b.sum[k]
		for z := dst.sum[k] &^ m; z != 0; z &= z - 1 {
			dst.words[k<<wordLog|bits.TrailingZeros64(z)] = 0
		}
		dst.sum[k] = m
		if m == full {
			dw, aw, bw := dst.words[k<<wordLog:k<<wordLog+wordBits], a.words[k<<wordLog:k<<wordLog+wordBits], b.words[k<<wordLog:k<<wordLog+wordBits]
			for j := range dw {
				dw[j] = aw[j] & bw[j]
			}
			continue
		}
		for ; m != 0; m &= m - 1 {
			i := k<<wordLog | bits.TrailingZeros64(m)
			dst.words[i] = a.words[i] & b.words[i]
		}
	}
}

// OrInto computes dst = a ∨ b without modifying a or b (unless dst is
// one of them).
func OrInto(dst, a, b *Vector) {
	if dst == b {
		a, b = b, a
	}
	dst.CopyFrom(a)
	dst.Or(b)
}
