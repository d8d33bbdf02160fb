package bitmat

import (
	"maps"
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

// cell is one set matrix cell: (row, column).
type cell = [2]uint32

// sortedRun sorts and deduplicates cells — mirrored when flip is set —
// into the ascending (row, column) columns NewCSR takes.
func sortedRun(cells []cell, flip bool) (rows, cols []uint32) {
	keys := make([]uint64, len(cells))
	for i, c := range cells {
		if flip {
			c[0], c[1] = c[1], c[0]
		}
		keys[i] = uint64(c[0])<<32 | uint64(c[1])
	}
	slices.Sort(keys)
	for _, k := range slices.Compact(keys) {
		rows, cols = append(rows, uint32(k>>32)), append(cols, uint32(k))
	}
	return rows, cols
}

// pairOf builds the F/B pair of the cells over n nodes the way a store
// does from its PSO and POS runs: F from the cells, B from the mirrored
// cells, each sorted. Duplicate cells collapse.
func pairOf(n int, cells ...cell) Pair {
	fr, fc := sortedRun(cells, false)
	br, bc := sortedRun(cells, true)
	return Pair{F: NewCSR(n, fr, fc), B: NewCSR(n, br, bc)}
}

// fig2aBornIn is the born_in adjacency of the paper's Fig. 2(a) with node
// order v1=place, v2=director1, v3=director2, v4=coworker, v5=movie
// (0-indexed here).
func fig2aBornIn() Pair {
	return pairOf(5, cell{1, 0}, cell{2, 0})
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
	m := pairOf(4, cell{0, 1}, cell{0, 2}, cell{2, 3}, cell{0, 1}).F // duplicate collapses
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
	if lo, hi := m.Span(2); lo != 2 || hi != 3 {
		t.Fatalf("Span(2) = [%d, %d), want [2, 3)", lo, hi)
	}
	if m.NonEmptyRowCount() != 2 {
		t.Fatalf("NonEmptyRowCount = %d", m.NonEmptyRowCount())
	}
	if want := bitvec.FromBits(4, 0, 2); !m.NonEmptyRows().Equal(want) {
		t.Fatalf("NonEmptyRows = %v", m.NonEmptyRows())
	}
}

// TestNewCSROutOfRangePanics: a cell outside the universe, or a run out
// of strictly ascending (row, column) order, is refused with a panic
// instead of becoming a directory that misreads rows.
func TestNewCSROutOfRangePanics(t *testing.T) {
	for name, run := range map[string][2][]uint32{
		"column out of range": {{0}, {5}},
		"row out of range":    {{2}, {0}},
		"rows descending":     {{1, 0}, {0, 0}},
		"columns descending":  {{0, 0}, {1, 0}},
		"duplicate cell":      {{0, 0}, {1, 1}},
		"columns left over":   {{0}, {0, 1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			NewCSR(2, run[0], run[1])
		}()
	}
}

// TestPropertyCSRConstruction: a matrix built from a sorted run answers
// like a map-of-sets model of its cells — Row, Span, the summary,
// UnionRows, RowIntersects, Update and Multiply in both directions — and
// so does the same pair widened over a larger universe. The shapes drawn
// cover the directory's edge cases: an empty matrix, a row of more than
// 64 entries, ids 0 and n−1, a summary word with all 64 bits set, and n
// both a multiple of 64 and not.
func TestPropertyCSRConstruction(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := []int{1, 2, 63, 64, 65, 127, 128, 129, 200}[r.Intn(9)]
		var cells []cell
		if r.Intn(5) > 0 { // otherwise the empty matrix
			cells = randomCells(r, n, r.Intn(3*n))
			if r.Intn(2) == 0 { // the first and the last id
				cells = append(cells, cell{0, uint32(n - 1)}, cell{uint32(n - 1), 0})
			}
			if r.Intn(2) == 0 { // one row holding every column
				row := uint32(r.Intn(n))
				for j := 0; j < n; j++ {
					cells = append(cells, cell{row, uint32(j)})
				}
			}
			if n >= 64 && r.Intn(2) == 0 { // a summary word of 64 non-empty rows
				w := r.Intn(n / 64)
				for i := 64 * w; i < 64*w+64; i++ {
					cells = append(cells, cell{uint32(i), uint32(r.Intn(n))})
				}
			}
		}
		p := pairOf(n, cells...)
		if !matchesModel(t, p, n, cells, r) {
			return false
		}
		wide := n + 1 + r.Intn(130)
		return matchesModel(t, p.Widen(wide), wide, cells, r)
	}
	proptest.Check(t, f, 300, regressionSeeds)
}

// matchesModel checks both matrices of p, over an n-node universe,
// against a map-of-sets model of the cells, under random operands.
func matchesModel(t *testing.T, p Pair, n int, cells []cell, r *rand.Rand) bool {
	t.Helper()
	fwd, bwd := map[uint32]map[uint32]bool{}, map[uint32]map[uint32]bool{}
	add := func(m map[uint32]map[uint32]bool, a, b uint32) {
		if m[a] == nil {
			m[a] = map[uint32]bool{}
		}
		m[a][b] = true
	}
	for _, c := range cells {
		add(fwd, c[0], c[1])
		add(bwd, c[1], c[0])
	}
	x, cand := randomVec(r, n), randomVec(r, n)
	for dir, d := range []struct {
		m     *CSR
		model map[uint32]map[uint32]bool
	}{{p.F, fwd}, {p.B, bwd}} {
		if d.m.Dim() != n || d.m.NonEmptyRowCount() != len(d.model) || d.m.NonEmptyRows().Len() != n {
			t.Logf("direction %d: dim %d, %d non-empty rows; want %d and %d", dir, d.m.Dim(), d.m.NonEmptyRowCount(), n, len(d.model))
			return false
		}
		nnz := 0
		for i := 0; i < n; i++ {
			want := slices.Sorted(maps.Keys(d.model[uint32(i)]))
			row := d.m.Row(i)
			if !slices.Equal(row, want) || d.m.NonEmptyRows().Get(i) != (len(want) > 0) {
				t.Logf("direction %d row %d: %v (summary %v), want %v", dir, i, row, d.m.NonEmptyRows().Get(i), want)
				return false
			}
			if lo, hi := d.m.Span(i); len(want) > 0 && (lo != nnz || hi != nnz+len(want)) {
				t.Logf("direction %d row %d spans [%d, %d), want [%d, %d)", dir, i, lo, hi, nnz, nnz+len(want))
				return false
			}
			nnz += len(want)
			meets := false
			for _, j := range want {
				meets = meets || x.Get(int(j))
			}
			if d.m.RowIntersects(i, x) != meets {
				t.Logf("direction %d row %d: RowIntersects = %v", dir, i, !meets)
				return false
			}
		}
		if d.m.NNZ() != nnz {
			t.Logf("direction %d: NNZ %d, want %d", dir, d.m.NNZ(), nnz)
			return false
		}
		// (x ×b A)(j) = 1 iff some i ∈ x has A(i, j).
		product := bitvec.New(n)
		x.ForEach(func(i int) bool {
			for j := range d.model[uint32(i)] {
				product.Set(int(j))
			}
			return true
		})
		union := bitvec.New(n)
		d.m.UnionRows(x, union)
		want := cand.Clone()
		want.And(product)
		dst := bitvec.New(n)
		ok := union.Equal(product)
		for _, s := range []Strategy{RowWise, ColWise, Auto} {
			p.Multiply(Direction(dir), x, cand, dst, s)
			ok = ok && dst.Equal(want)
		}
		got := cand.Clone()
		count := p.Update(Direction(dir), x, got, x.Count(), got.Count(), bitvec.New(n))
		if !ok || count != want.Count() || !got.Equal(want) {
			t.Logf("direction %d: x ×b A disagrees with the model (x %v, cand %v)", dir, x, cand)
			return false
		}
	}
	return true
}

func randomCells(r *rand.Rand, n, e int) []cell {
	cells := make([]cell, e)
	for i := range cells {
		cells[i] = cell{uint32(r.Intn(n)), uint32(r.Intn(n))}
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
func naiveMultiply(n int, cells []cell, x, cand *bitvec.Vector) *bitvec.Vector {
	out := bitvec.New(n)
	for _, c := range cells {
		if x.Get(int(c[0])) && cand.Get(int(c[1])) {
			out.Set(int(c[1]))
		}
	}
	return out
}

func TestPropertyMultiplyMatchesSpec(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(60) + 2
		cells := randomCells(r, n, r.Intn(4*n))
		p := pairOf(n, cells...)
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
		rev := make([]cell, len(cells))
		for i, c := range cells {
			rev[i] = cell{c[1], c[0]}
		}
		wantB := naiveMultiply(n, rev, x, cand)
		p.Multiply(Backward, x, cand, dst, Auto)
		return dst.Equal(wantB)
	}
	proptest.Check(t, f, 150, regressionSeeds)
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
	p := EmptyPair(10)
	dst := bitvec.New(10)
	p.Multiply(Forward, bitvec.NewFull(10), bitvec.NewFull(10), dst, Auto)
	if !dst.IsEmpty() {
		t.Fatal("empty matrix produced bits")
	}
	if p.F.NonEmptyRowCount() != 0 || p.F.Dim() != 10 || p.B.Dim() != 10 {
		t.Fatal("phantom non-empty rows or a wrong dimension")
	}
}

// TestPropertyCellsAtMost: the word-at-a-time count answers like summing
// Span bit by bit, for bounds just below, at and above the true count,
// on vectors whose words cover every non-empty row of theirs, some of
// them, or none.
func TestPropertyCellsAtMost(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := []int{1, 63, 64, 65, 129, 200, 320}[r.Intn(7)]
		m := pairOf(n, randomCells(r, n, r.Intn(3*n))...).F
		x := randomVec(r, n)
		for i := 0; i < n; i++ {
			switch w := i / 64; {
			case w%3 == 0: // the word covers its non-empty rows
				if m.NonEmptyRows().Get(i) {
					x.Set(i)
				}
			case w%3 == 1 && r.Intn(4) == 0:
				x.Clear(i)
			}
		}
		total := 0
		x.ForEach(func(i int) bool {
			lo, hi := m.Span(i)
			total += hi - lo
			return true
		})
		for _, bound := range []int{total - 1, total, total + 1, r.Intn(total + 1), 0} {
			if got := m.CellsAtMost(x, bound); got != (total <= bound) {
				t.Logf("seed %d n %d: CellsAtMost(x, %d) = %v, the rows of x hold %d cells", seed, n, bound, got, total)
				return false
			}
		}
		return true
	}
	proptest.Check(t, f, 500, regressionSeeds)
}
