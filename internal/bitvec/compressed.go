package bitvec

import (
	"fmt"
	"math/bits"
)

// Compressed is a run-length ("gap-length") encoded bit-vector in the style
// of EWAH: the encoding is a sequence of marker words, each followed by a
// run of literal words. A marker packs
//
//	bit  0       – the fill bit (value of the run of identical words)
//	bits 1..32   – the number of fill words (runs of all-0 or all-1 words)
//	bits 33..63  – the number of literal words that follow the marker
//
// Long gaps of zeros (the common case for adjacency-matrix rows over large
// node universes) therefore cost a single word. Compressed vectors are
// immutable once built; they support read-side operations (iteration,
// intersection tests, OR-expansion into a dense Vector) and full
// round-tripping to and from Vector.
type Compressed struct {
	words []uint64 // marker/literal stream
	n     int      // logical bit length
}

const (
	fillBitShift   = 0
	fillCountShift = 1
	fillCountBits  = 32
	litCountShift  = 33
	litCountBits   = 31
	maxFillPerWord = (1 << fillCountBits) - 1
	maxLitsPerWord = (1 << litCountBits) - 1
)

func marker(fill bool, fillCount, litCount int) uint64 {
	m := uint64(fillCount)<<fillCountShift | uint64(litCount)<<litCountShift
	if fill {
		m |= 1 << fillBitShift
	}
	return m
}

func decodeMarker(m uint64) (fill bool, fillCount, litCount int) {
	fill = m&1 != 0
	fillCount = int(m >> fillCountShift & maxFillPerWord)
	litCount = int(m >> litCountShift & maxLitsPerWord)
	return
}

// Compress encodes a dense Vector.
func Compress(v *Vector) *Compressed {
	c := &Compressed{n: v.n}
	ws := v.words
	i := 0
	for i < len(ws) {
		// Count a run of identical fill words (all zeros or all ones).
		fill := false
		fillCount := 0
		switch ws[i] {
		case 0:
			for i < len(ws) && ws[i] == 0 && fillCount < maxFillPerWord {
				fillCount++
				i++
			}
		case ^uint64(0):
			fill = true
			for i < len(ws) && ws[i] == ^uint64(0) && fillCount < maxFillPerWord {
				fillCount++
				i++
			}
		}
		// Count following literal words up to the next fill run.
		start := i
		for i < len(ws) && ws[i] != 0 && ws[i] != ^uint64(0) && i-start < maxLitsPerWord {
			i++
		}
		c.words = append(c.words, marker(fill, fillCount, i-start))
		c.words = append(c.words, ws[start:i]...)
	}
	return c
}

// Decompress expands c into a fresh dense Vector.
func (c *Compressed) Decompress() *Vector {
	v := New(c.n)
	c.OrInto(v)
	return v
}

// Len returns the logical number of bits.
func (c *Compressed) Len() int { return c.n }

// SizeWords returns the number of 64-bit words the encoding occupies,
// for memory accounting (cf. the paper's §5.1 space report).
func (c *Compressed) SizeWords() int { return len(c.words) }

// OrInto ORs the compressed contents into the dense vector v, which must
// have the same logical length. It writes v's words directly and so marks
// every word it may have made non-zero in v's summary.
func (c *Compressed) OrInto(v *Vector) {
	if v.n != c.n {
		panic(fmt.Sprintf("bitvec: OrInto length mismatch %d vs %d", v.n, c.n))
	}
	w := 0
	for i := 0; i < len(c.words); {
		fill, fc, lc := decodeMarker(c.words[i])
		i++
		if fill {
			for k := 0; k < fc; k++ {
				v.words[w+k] = full
				v.sum[(w+k)>>wordLog] |= 1 << uint((w+k)&wordMask)
			}
		}
		w += fc
		for k := 0; k < lc; k++ {
			v.words[w] |= c.words[i]
			v.sum[w>>wordLog] |= 1 << uint(w&wordMask)
			i++
			w++
		}
	}
}

// Count returns the number of set bits.
func (c *Compressed) Count() int {
	total := 0
	i := 0
	for i < len(c.words) {
		fill, fc, lc := decodeMarker(c.words[i])
		i++
		if fill {
			total += fc * wordBits
		}
		for k := 0; k < lc; k++ {
			total += bits.OnesCount64(c.words[i])
			i++
		}
	}
	// A trailing all-ones fill may overcount past the logical end; the
	// encoder only compresses words produced by a trimmed Vector, whose
	// final partial word is a literal unless n is word-aligned, so no
	// correction is needed. (Enforced by TestCompressedCount.)
	return total
}

// IsEmpty reports whether no bit is set.
func (c *Compressed) IsEmpty() bool {
	i := 0
	for i < len(c.words) {
		fill, fc, lc := decodeMarker(c.words[i])
		i++
		if fill && fc > 0 {
			return false
		}
		for k := 0; k < lc; k++ {
			if c.words[i] != 0 {
				return false
			}
			i++
		}
	}
	return true
}

// Intersects reports whether c and the dense vector v share a set bit.
func (c *Compressed) Intersects(v *Vector) bool {
	if v.n < c.n {
		panic("bitvec: Intersects target too short")
	}
	w := 0
	i := 0
	for i < len(c.words) {
		fill, fc, lc := decodeMarker(c.words[i])
		i++
		if fill {
			for k := 0; k < fc; k++ {
				if v.words[w] != 0 {
					return true
				}
				w++
			}
		} else {
			w += fc
		}
		for k := 0; k < lc; k++ {
			if c.words[i]&v.words[w] != 0 {
				return true
			}
			i++
			w++
		}
	}
	return false
}

// ForEach calls fn for every set bit in ascending order; stops if fn
// returns false.
func (c *Compressed) ForEach(fn func(i int) bool) {
	w := 0
	i := 0
	for i < len(c.words) {
		fill, fc, lc := decodeMarker(c.words[i])
		i++
		if fill {
			for k := 0; k < fc; k++ {
				base := w * wordBits
				for b := 0; b < wordBits && base+b < c.n; b++ {
					if !fn(base + b) {
						return
					}
				}
				w++
			}
		} else {
			w += fc
		}
		for k := 0; k < lc; k++ {
			x := c.words[i]
			base := w * wordBits
			for x != 0 {
				t := bits.TrailingZeros64(x)
				if !fn(base + t) {
					return
				}
				x &= x - 1
			}
			i++
			w++
		}
	}
}
