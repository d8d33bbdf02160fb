package bitmat

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dualsim/internal/bitvec"
	"dualsim/internal/proptest"
)

// regressionSeeds pins the counterexamples the properties have found so
// far (none yet); proptest.Check replays them before exploring.
var regressionSeeds []int64

// fig2aBornIn is the born_in adjacency of the paper's Fig. 2(a) with node
// order v1=place, v2=director1, v3=director2, v4=coworker, v5=movie
// (0-indexed here).
func fig2aBornIn() Pair {
	return NewPair(5, []Cell{{Row: 1, Col: 0}, {Row: 2, Col: 0}})
}

func TestPaperForwardBackwardExample(t *testing.T) {
	// §3.2: with χS(director) = χS(place) = (1,1,1,1,1):
	//   χS(director) ×b F = (1,0,0,0,0) = r1
	//   χS(place)    ×b B = (0,1,1,0,0) = r2
	p := fig2aBornIn()
	all := bitvec.NewFull(5)
	dst := bitvec.New(5)

	p.Multiply(Forward, all, all, dst, RowWise)
	if want := bitvec.FromBits(5, 0); !dst.Equal(want) {
		t.Fatalf("r1 = %v, want %v", dst, want)
	}
	p.Multiply(Backward, all, all, dst, RowWise)
	if want := bitvec.FromBits(5, 1, 2); !dst.Equal(want) {
		t.Fatalf("r2 = %v, want %v", dst, want)
	}
	// Column-wise must agree.
	p.Multiply(Backward, all, all, dst, ColWise)
	if want := bitvec.FromBits(5, 1, 2); !dst.Equal(want) {
		t.Fatalf("col-wise r2 = %v, want %v", dst, want)
	}
}

func TestCSRBasics(t *testing.T) {
	m := NewCSR(4, []Cell{{0, 1}, {0, 2}, {2, 3}, {0, 1}}) // duplicate collapses
	if m.Dim() != 4 {
		t.Fatalf("Dim = %d", m.Dim())
	}
	if m.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3", m.NNZ())
	}
	if got := m.Row(0); !reflect.DeepEqual(got, []uint32{1, 2}) {
		t.Fatalf("Row(0) = %v", got)
	}
	if got := m.Row(1); len(got) != 0 {
		t.Fatalf("Row(1) = %v", got)
	}
	if m.NonEmptyRowCount() != 2 {
		t.Fatalf("NonEmptyRowCount = %d", m.NonEmptyRowCount())
	}
	if want := bitvec.FromBits(4, 0, 2); !m.NonEmptyRows().Equal(want) {
		t.Fatalf("NonEmptyRows = %v", m.NonEmptyRows())
	}
}

func TestNewCSROutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range cell did not panic")
		}
	}()
	NewCSR(2, []Cell{{0, 5}})
}

func TestTranspose(t *testing.T) {
	m := NewCSR(3, []Cell{{0, 1}, {1, 2}, {0, 2}})
	mt := m.Transpose()
	for i := 0; i < 3; i++ {
		for _, j := range m.Row(i) {
			found := false
			for _, k := range mt.Row(int(j)) {
				if int(k) == i {
					found = true
				}
			}
			if !found {
				t.Fatalf("cell (%d,%d) missing in transpose", i, j)
			}
		}
	}
	if m.NNZ() != mt.NNZ() {
		t.Fatal("transpose changed NNZ")
	}
}

// TestPropertyCSRConstruction: a matrix does not depend on the order its
// cells arrive in — the sorted run NewCSR reads in place, the same cells
// shuffled (and duplicated), and the counting transpose of the transpose
// are the same matrix, and the transpose holds exactly the mirrored cells
// with sorted rows.
func TestPropertyCSRConstruction(t *testing.T) {
	sameCSR := func(a, b *CSR) bool {
		return reflect.DeepEqual(a.ptr, b.ptr) && reflect.DeepEqual(a.cols, b.cols) &&
			a.summary.Equal(b.summary) && a.nonEmpty == b.nonEmpty
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(80) + 1
		cells := randomCells(r, n, r.Intn(5*n))
		sorted := slices.Clone(cells)
		slices.SortFunc(sorted, compareCells)
		sorted = slices.Compact(sorted)
		shuffled := append(slices.Clone(cells), cells[:len(cells)/3]...)
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

		m := NewCSR(n, sorted)
		mt := m.Transpose()
		mirrored := make([]Cell, len(sorted))
		for i, c := range sorted {
			mirrored[i] = Cell{Row: c.Col, Col: c.Row}
		}
		return sameCSR(m, NewCSR(n, shuffled)) && sameCSR(m, mt.Transpose()) && sameCSR(mt, NewCSR(n, mirrored))
	}
	proptest.Check(t, f, 200, regressionSeeds)
}

func randomCells(r *rand.Rand, n, e int) []Cell {
	cells := make([]Cell, e)
	for i := range cells {
		cells[i] = Cell{Row: uint32(r.Intn(n)), Col: uint32(r.Intn(n))}
	}
	return cells
}

func randomVec(r *rand.Rand, n int) *bitvec.Vector {
	v := bitvec.New(n)
	for i := 0; i < n; i++ {
		if r.Intn(3) == 0 {
			v.Set(i)
		}
	}
	return v
}

// naiveMultiply is the spec: (x ×b A)(j) = 1 iff ∃i: x(i) ∧ A(i,j).
func naiveMultiply(n int, cells []Cell, x, cand *bitvec.Vector) *bitvec.Vector {
	out := bitvec.New(n)
	for _, c := range cells {
		if x.Get(int(c.Row)) && cand.Get(int(c.Col)) {
			out.Set(int(c.Col))
		}
	}
	return out
}

func TestPropertyMultiplyMatchesSpec(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(60) + 2
		cells := randomCells(r, n, r.Intn(4*n))
		p := NewPair(n, cells)
		x := randomVec(r, n)
		cand := randomVec(r, n)
		want := naiveMultiply(n, cells, x, cand)

		dst := bitvec.New(n)
		for _, s := range []Strategy{RowWise, ColWise, Auto} {
			p.Multiply(Forward, x, cand, dst, s)
			if !dst.Equal(want) {
				return false
			}
		}
		// Backward multiply must equal multiplying the reversed cells.
		rev := make([]Cell, len(cells))
		for i, c := range cells {
			rev[i] = Cell{Row: c.Col, Col: c.Row}
		}
		wantB := naiveMultiply(n, rev, x, cand)
		p.Multiply(Backward, x, cand, dst, Auto)
		return dst.Equal(wantB)
	}
	proptest.Check(t, f, 150, regressionSeeds)
}

// TestMultiplyAllocs: Multiply runs its kernel straight into dst and
// allocates nothing, whichever strategy it resolves to.
func TestMultiplyAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const n = 1 << 14
	p := NewPair(n, randomCells(r, n, 4*n))
	x := randomVec(r, n)
	cand := randomVec(r, n)
	dst := bitvec.New(n)
	for _, s := range []Strategy{RowWise, ColWise} {
		if allocs := testing.AllocsPerRun(50, func() { p.Multiply(Forward, x, cand, dst, s) }); allocs > 0 {
			t.Errorf("strategy %v: %.1f allocs/op, want 0", s, allocs)
		}
	}
}

func TestMultiplyReturnsWorkMetric(t *testing.T) {
	p := fig2aBornIn()
	x := bitvec.FromBits(5, 1, 2)
	dst := bitvec.New(5)
	if got := p.Multiply(Forward, x, bitvec.NewFull(5), dst, Auto); got != 2 {
		t.Fatalf("work metric = %d, want 2", got)
	}
}

func TestEmptyMatrix(t *testing.T) {
	p := NewPair(10, nil)
	dst := bitvec.New(10)
	p.Multiply(Forward, bitvec.NewFull(10), bitvec.NewFull(10), dst, Auto)
	if !dst.IsEmpty() {
		t.Fatal("empty matrix produced bits")
	}
	if p.F.NonEmptyRowCount() != 0 {
		t.Fatal("phantom non-empty rows")
	}
}
