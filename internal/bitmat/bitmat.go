// Package bitmat implements the per-label adjacency bit-matrices of the
// paper's Sect. 3.2 and the bit-matrix multiplication ×b that powers the
// system-of-inequalities solver:
//
//	(x ×b A)(j) = 1  iff  ∃i : x(i) = 1 ∧ A(i,j) = 1
//
// For every label a of the graph database, the forward map F_a and the
// backward map B_a are materialized as matrices; B_a is the transpose of
// F_a. The multiplication is available in two evaluation strategies
// (§3.3):
//
//   - row-wise: union the rows of A indexed by the set bits of x;
//   - column-wise: for each candidate column j, test whether column j of A
//     (= row j of Aᵀ) intersects x.
//
// The solver picks between the two per evaluation based on population
// counts; Pair bundles a matrix with its transpose so both strategies are
// always available.
//
// Matrices are stored sparsely, as CSR over the non-empty rows only: the
// column ids of the set cells, row after row, and a row directory — the
// non-empty-row summary, one prefix count per 64-bit summary word and one
// offset per non-empty row. Reading a row is a bit test, a popcount and
// two offset loads; the directory costs n/8 + n/16 bytes however few rows
// are set. A store hands its own id columns in as the column ids, so the
// matrices are its index, not a copy of it.
package bitmat

import (
	"fmt"
	"math/bits"

	"dualsim/internal/bitvec"
)

// CSR is a compressed-sparse-row boolean matrix: row i holds the sorted
// column indices of its set cells, and only non-empty rows take space
// beyond the directory. Rows and columns range over [0, Dim()); a matrix
// is immutable after construction and safe for concurrent reads.
type CSR struct {
	n       int
	cols    []uint32       // column ids, row after row
	summary *bitvec.Vector // bit i set iff row i is non-empty
	before  []uint32       // before[w]: non-empty rows in summary words 0 … w-1
	off     []uint32       // off[k]: start in cols of the k-th non-empty row; off[last] = len(cols)
}

// NewCSR builds the n×n matrix whose cells are (rows[i], cols[i]). The
// cells must arrive in strictly ascending (row, column) order — a store's
// PSO run, or its POS run for the transpose. The matrix keeps cols as its
// column ids (the caller must not modify it afterwards) and reads rows
// only while building the directory.
func NewCSR(n int, rows, cols []uint32) *CSR {
	if len(rows) != len(cols) {
		panic(fmt.Sprintf("bitmat: %d row ids for %d column ids", len(rows), len(cols)))
	}
	nonEmpty := 0
	for i, r := range rows {
		if int(r) >= n || int(cols[i]) >= n {
			panic(fmt.Sprintf("bitmat: cell (%d,%d) out of range for dim %d", r, cols[i], n))
		}
		if i > 0 && (r < rows[i-1] || r == rows[i-1] && cols[i] <= cols[i-1]) {
			panic(fmt.Sprintf("bitmat: cell %d (%d,%d) not after (%d,%d)", i, r, cols[i], rows[i-1], cols[i-1]))
		}
		if i == 0 || r != rows[i-1] {
			nonEmpty++
		}
	}
	words := (n + 63) / 64
	m := &CSR{
		n:       n,
		cols:    cols,
		summary: bitvec.New(n),
		before:  make([]uint32, words+1),
		off:     make([]uint32, 0, nonEmpty+1),
	}
	for i, r := range rows {
		if i == 0 || r != rows[i-1] {
			m.summary.Set(int(r))
			m.off = append(m.off, uint32(i))
		}
	}
	m.off = append(m.off, uint32(len(cols)))
	for w := 0; w < words; w++ {
		m.before[w+1] = m.before[w] + uint32(bits.OnesCount64(m.summary.Word(w)))
	}
	return m
}

// Widen returns the matrix over an n ≥ Dim() node universe: the same
// cells, with the column ids and offsets shared and only the directory's
// summary and prefix counts extended over the new rows, which are empty.
func (m *CSR) Widen(n int) *CSR {
	if n == m.n {
		return m
	}
	w := &CSR{n: n, cols: m.cols, summary: m.summary.Widen(n), before: m.before, off: m.off}
	if words := (n + 63) / 64; words+1 > len(m.before) {
		w.before = make([]uint32, words+1)
		last := copy(w.before, m.before) - 1
		for i := last + 1; i < len(w.before); i++ {
			w.before[i] = m.before[last]
		}
	}
	return w
}

// Dim returns the number of rows (= columns; matrices are square over the
// node universe).
func (m *CSR) Dim() int { return m.n }

// NNZ returns the number of set cells, i.e. the number of a-labeled edges.
func (m *CSR) NNZ() int { return len(m.cols) }

// slot returns row i's index in the directory, or -1 when the row is
// empty: a bit test and a popcount of the summary word below it.
//
//dualsim:hotpath
func (m *CSR) slot(i int) int {
	w, b := i>>6, uint(i&63)
	word := m.summary.Word(w)
	if word>>b&1 == 0 {
		return -1
	}
	// The bits of word at or below b, less row i's own.
	return int(m.before[w]) + bits.OnesCount64(word<<(63-b)) - 1
}

// Span returns the bounds [lo, hi) of row i within the column ids — the
// positions of its cells in the run the matrix was built from. An empty
// row spans nothing.
//
//dualsim:hotpath
func (m *CSR) Span(i int) (lo, hi int) {
	k := m.slot(i)
	if k < 0 {
		return 0, 0
	}
	return int(m.off[k]), int(m.off[k+1])
}

// Row returns the sorted column indices of row i. The slice is shared and
// capacity-limited: callers must not write to or append onto it.
//
//dualsim:hotpath
func (m *CSR) Row(i int) []uint32 {
	lo, hi := m.Span(i)
	return m.cols[lo:hi:hi]
}

// UnionRows ORs every row indexed by a set bit of x into dst:
// dst ∨= ⋃_{i ∈ x} A(i,·). This is the row-wise ×b kernel.
//
//dualsim:hotpath
func (m *CSR) UnionRows(x, dst *bitvec.Vector) {
	// Rows with adjacent directory slots are adjacent in cols, whatever
	// empty rows lie between them: a run of slots is one slice of column
	// ids.
	lo, hi := 0, 0
	x.ForEach(func(i int) bool {
		k := m.slot(i)
		if k < 0 {
			return true
		}
		if k != hi {
			dst.SetAll(m.cols[m.off[lo]:m.off[hi]])
			lo = k
		}
		hi = k + 1
		return true
	})
	dst.SetAll(m.cols[m.off[lo]:m.off[hi]])
}

// CellsAtMost reports whether the rows x indexes hold at most n cells in
// all. A word of x that covers every non-empty row of its summary word
// adds their cells as one span, their slots being adjacent; other words
// add row by row, until the sum passes n.
//
//dualsim:hotpath
func (m *CSR) CellsAtMost(x *bitvec.Vector, n int) bool {
	for i := x.NextSet(0); i >= 0 && n >= 0; i = x.NextSet((i | 63) + 1) {
		w := i >> 6
		rows, k := m.summary.Word(w), int(m.before[w])
		hit := x.Word(w) & rows
		if hit == rows {
			n -= int(m.off[k+bits.OnesCount64(rows)] - m.off[k])
			continue
		}
		for ; hit != 0 && n >= 0; hit &= hit - 1 {
			lo, hi := m.Span(w<<6 | bits.TrailingZeros64(hit))
			n -= hi - lo
		}
	}
	return n >= 0
}

// RowIntersects reports whether row i shares a set bit with x. Applied to
// the transpose it is the column-wise ×b kernel (equation (4)).
//
//dualsim:hotpath
func (m *CSR) RowIntersects(i int, x *bitvec.Vector) bool {
	for _, j := range m.Row(i) {
		if x.Get(int(j)) {
			return true
		}
	}
	return false
}

// NonEmptyRows returns the summary vector with bit i set iff row i has any
// set cell — f_a (resp. b_a for the transpose) of inequality (13). The
// returned vector is shared; callers must not modify it.
func (m *CSR) NonEmptyRows() *bitvec.Vector { return m.summary }

// NonEmptyRowCount returns NonEmptyRows().Count() without recounting.
func (m *CSR) NonEmptyRowCount() int { return len(m.off) - 1 }

// Pair bundles the forward matrix of a label with its transpose (the
// backward matrix) so that both ×b strategies are available for both edge
// directions.
type Pair struct {
	F *CSR // F_a: row v holds the a-successors of v
	B *CSR // B_a = F_aᵀ: row w holds the a-predecessors of w
}

// EmptyPair is the adjacency of a label without edges over an n-node
// universe: one empty matrix serves as both directions.
func EmptyPair(n int) Pair {
	e := NewCSR(n, nil, nil)
	return Pair{F: e, B: e}
}

// Widen returns the pair over an n ≥ Dim() node universe (see CSR.Widen).
func (p Pair) Widen(n int) Pair {
	return Pair{F: p.F.Widen(n), B: p.B.Widen(n)}
}

// oriented returns the matrix ×b multiplies against in direction dir and
// its transpose.
func (p Pair) oriented(dir Direction) (a, at *CSR) {
	if dir == Backward {
		return p.B, p.F
	}
	return p.F, p.B
}

// Strategy selects the ×b evaluation strategy.
type Strategy uint8

const (
	// Auto picks row-wise iff the multiplier x has fewer set bits than
	// the candidate set — the paper's dynamic heuristic (§3.3).
	Auto Strategy = iota
	// RowWise always unions rows of A indexed by x.
	RowWise
	// ColWise always tests candidate columns against the transpose.
	ColWise
)

// Resolve returns the strategy an evaluation with |x| = xCount set
// multiplier bits and candCount candidate columns runs under: s itself
// when it is fixed, and for Auto row-wise iff the multiplier has fewer
// set bits than the candidate set.
func (s Strategy) Resolve(xCount, candCount int) Strategy {
	if s == Auto {
		if xCount < candCount {
			return RowWise
		}
		return ColWise
	}
	return s
}

// Update is the SOI update step in place: cand ∧= x ×b A, where A is p.F
// when dir is Forward and p.B when dir is Backward. xCount and candCount
// are the callers' cached population counts of x and cand; the result is
// cand's new count, so cand changed iff it differs from candCount.
//
// The strategy is Auto's choice. Column-wise, the candidates are walked
// and those whose transposed row misses x are cleared — no scratch, no
// compare, no copy. x and cand may be the same vector (a self-loop pattern
// edge): a candidate is then tested against a set that only shrinks, which
// removes no node that has a partner in the fixpoint. Row-wise, the
// product is accumulated into scratch and ∧-ed into cand once.
//
//dualsim:hotpath
func (p Pair) Update(dir Direction, x, cand *bitvec.Vector, xCount, candCount int, scratch *bitvec.Vector) int {
	a, at := p.oriented(dir)
	if Auto.Resolve(xCount, candCount) == ColWise {
		return cand.Retain(func(j int) bool { return at.RowIntersects(j, x) })
	}
	scratch.Zero()
	a.UnionRows(x, scratch)
	if cand.And(scratch) {
		return cand.Count()
	}
	return candCount
}

// Multiply computes r = (x ×b A) ∧ cand into dst under strategy s. cand
// restricts the interesting columns (the current χS of the constrained
// variable); restricting is sound because the result is immediately ∧-ed
// with cand by the SOI update rule. dst must be distinct from x and cand.
//
// It returns the number of set bits of x ("work left") purely as a metric.
//
//dualsim:hotpath
func (p Pair) Multiply(dir Direction, x, cand, dst *bitvec.Vector, s Strategy) int {
	a, at := p.oriented(dir)
	xCount := x.Count()
	if s.Resolve(xCount, cand.Count()) == RowWise {
		dst.Zero()
		a.UnionRows(x, dst)
		dst.And(cand)
	} else {
		dst.CopyFrom(cand)
		dst.Retain(func(j int) bool { return at.RowIntersects(j, x) })
	}
	return xCount
}

// Direction selects which of the two adjacency maps ×b runs against.
type Direction uint8

const (
	// Forward multiplies against F_a.
	Forward Direction = iota
	// Backward multiplies against B_a.
	Backward
)
