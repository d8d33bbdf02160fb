package soi

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"dualsim/internal/bitmat"
	"dualsim/internal/bitvec"
)

// chainSystem builds a pattern cycle over a long data chain — a system
// whose convergence speed is highly order-sensitive.
func chainSystem(n int) *System {
	cells := make([]bitmat.Cell, 0, n-1)
	for i := 0; i < n-1; i++ {
		cells = append(cells, bitmat.Cell{Row: uint32(i), Col: uint32(i + 1)})
	}
	mats := bitmat.NewPair(n, cells)
	s := NewSystem(n)
	v := s.AddVar("v", nil, true)
	w := s.AddVar("w", nil, true)
	s.AddEdge(v, w, mats, "next")
	s.AddEdge(w, v, mats, "next")
	return s
}

func TestSearchOrdersFindsSpread(t *testing.T) {
	s := chainSystem(24)
	stats := s.SearchOrders(context.Background(), 30, 7, Options{})
	if stats.Trials != 30 {
		t.Fatalf("trials = %d", stats.Trials)
	}
	if stats.BestEvaluations > stats.HeuristicEvaluations {
		t.Fatalf("best %d > heuristic %d", stats.BestEvaluations, stats.HeuristicEvaluations)
	}
	if stats.BestEvaluations > stats.WorstEvaluations {
		t.Fatalf("best %d > worst %d", stats.BestEvaluations, stats.WorstEvaluations)
	}
	if len(stats.BestPermutation) != s.NumIneqs() {
		t.Fatalf("permutation length %d", len(stats.BestPermutation))
	}
}

// TestPropertyPermutationInvariantSolution: the solution is the same
// under every permutation — only the effort differs (uniqueness of the
// largest solution, Proposition 1).
func TestPropertyPermutationInvariantSolution(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(30) + 4
		var cells []bitmat.Cell
		for i := 0; i < r.Intn(3*n)+2; i++ {
			cells = append(cells, bitmat.Cell{Row: uint32(r.Intn(n)), Col: uint32(r.Intn(n))})
		}
		mats := bitmat.NewPair(n, cells)
		s := NewSystem(n)
		a := s.AddVar("a", nil, true)
		b := s.AddVar("b", nil, true)
		c := s.AddVar("c", nil, true)
		s.AddEdge(a, b, mats, "p")
		s.AddEdge(b, c, mats, "p")
		s.AddEdge(c, a, mats, "p")

		want := s.Solve(context.Background(), Options{})
		perm := make([]int, s.NumIneqs())
		for i := range perm {
			perm[i] = i
		}
		for trial := 0; trial < 5; trial++ {
			r.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			sol := s.Solve(context.Background(), Options{Permutation: append([]int(nil), perm...)})
			for v := range want.Chi {
				if !sol.Chi[v].Equal(want.Chi[v]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestSearchOrdersRespectsBounds(t *testing.T) {
	// A system with constants: search must not disturb initial bounds.
	n := 6
	mats := bitmat.NewPair(n, []bitmat.Cell{{Row: 0, Col: 1}, {Row: 2, Col: 3}})
	s := NewSystem(n)
	v := s.AddVar("v", bitvec.FromBits(n, 0), true)
	w := s.AddVar("w", nil, true)
	s.AddEdge(v, w, mats, "p")
	stats := s.SearchOrders(context.Background(), 10, 3, Options{})
	sol := s.Solve(context.Background(), Options{Permutation: stats.BestPermutation})
	if !sol.Chi[v].Equal(bitvec.FromBits(n, 0)) || !sol.Chi[w].Equal(bitvec.FromBits(n, 1)) {
		t.Fatalf("solution drifted: v=%v w=%v", sol.Chi[v], sol.Chi[w])
	}
}
