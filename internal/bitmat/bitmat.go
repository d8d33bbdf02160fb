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
// Matrices are stored sparsely, as CSR: one sorted adjacency row per node.
package bitmat

import (
	"cmp"
	"fmt"
	"slices"

	"dualsim/internal/bitvec"
)

// CSR is a compressed-sparse-row boolean matrix: row i holds the sorted
// column indices of its set cells. Rows and columns range over [0, Dim());
// a matrix is immutable after construction and safe for concurrent reads.
type CSR struct {
	n        int
	ptr      []uint32
	cols     []uint32
	summary  *bitvec.Vector
	nonEmpty int
}

// Cell is one set matrix cell (an edge endpoint pair).
type Cell struct{ Row, Col uint32 }

func compareCells(a, b Cell) int {
	if c := cmp.Compare(a.Row, b.Row); c != 0 {
		return c
	}
	return cmp.Compare(a.Col, b.Col)
}

// NewCSR builds a CSR matrix of dimension n from the given cells.
// Duplicate cells are collapsed. Cells that arrive in (row, column) order
// — a store's PSO run — are read in place; any other order is copied and
// sorted first.
func NewCSR(n int, cells []Cell) *CSR {
	for _, c := range cells {
		if int(c.Row) >= n || int(c.Col) >= n {
			panic(fmt.Sprintf("bitmat: cell (%d,%d) out of range for dim %d", c.Row, c.Col, n))
		}
	}
	if !slices.IsSortedFunc(cells, compareCells) {
		cells = slices.Clone(cells)
		slices.SortFunc(cells, compareCells)
	}
	m := &CSR{n: n, ptr: make([]uint32, n+1), cols: make([]uint32, 0, len(cells))}
	for i, c := range cells {
		if i == 0 || c != cells[i-1] {
			m.ptr[c.Row+1]++
			m.cols = append(m.cols, c.Col)
		}
	}
	m.finish()
	return m
}

// finish turns the per-row counts in ptr[1:] into row offsets and derives
// the non-empty-row summary.
func (m *CSR) finish() {
	for i := 1; i <= m.n; i++ {
		m.ptr[i] += m.ptr[i-1]
	}
	m.summary = bitvec.New(m.n)
	for i := 0; i < m.n; i++ {
		if m.ptr[i+1] > m.ptr[i] {
			m.summary.Set(i)
			m.nonEmpty++
		}
	}
}

// Dim returns the number of rows (= columns; matrices are square over the
// node universe).
func (m *CSR) Dim() int { return m.n }

// NNZ returns the number of set cells, i.e. the number of a-labeled edges.
func (m *CSR) NNZ() int { return len(m.cols) }

// Row returns the sorted column indices of row i. The slice is shared.
func (m *CSR) Row(i int) []uint32 { return m.cols[m.ptr[i]:m.ptr[i+1]] }

// UnionRows ORs every row indexed by a set bit of x into dst:
// dst ∨= ⋃_{i ∈ x} A(i,·). This is the row-wise ×b kernel.
//
//dualsim:hotpath
func (m *CSR) UnionRows(x, dst *bitvec.Vector) {
	// Adjacent rows are adjacent in cols: a run of set bits of x is one
	// slice of column ids.
	lo, hi := 0, 0
	x.ForEach(func(i int) bool {
		if i != hi {
			dst.SetAll(m.cols[m.ptr[lo]:m.ptr[hi]])
			lo = i
		}
		hi = i + 1
		return true
	})
	dst.SetAll(m.cols[m.ptr[lo]:m.ptr[hi]])
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
func (m *CSR) NonEmptyRowCount() int { return m.nonEmpty }

// Transpose returns the transposed CSR matrix, built by a counting pass
// over the column ids: walking the rows in order fills every transposed
// row in ascending order, so nothing is sorted.
func (m *CSR) Transpose() *CSR {
	t := &CSR{n: m.n, ptr: make([]uint32, m.n+1), cols: make([]uint32, len(m.cols))}
	for _, j := range m.cols {
		t.ptr[j+1]++
	}
	t.finish()
	// Fill with ptr[j] as row j's write cursor: afterwards it sits at the
	// row's end, which is the next row's start, so shifting the array by
	// one restores the offsets without a second n-sized array.
	for i := 0; i < m.n; i++ {
		for _, j := range m.Row(i) {
			t.cols[t.ptr[j]] = uint32(i)
			t.ptr[j]++
		}
	}
	copy(t.ptr[1:], t.ptr)
	t.ptr[0] = 0
	return t
}

// Pair bundles the forward matrix of a label with its transpose (the
// backward matrix) so that both ×b strategies are available for both edge
// directions.
type Pair struct {
	F *CSR // F_a: row v holds the a-successors of v
	B *CSR // B_a = F_aᵀ: row w holds the a-predecessors of w
}

// NewPair builds the F/B pair of CSR matrices for one label from the
// label's (subject, object) pairs over an n-node universe.
func NewPair(n int, edges []Cell) Pair {
	f := NewCSR(n, edges)
	return Pair{F: f, B: f.Transpose()}
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
