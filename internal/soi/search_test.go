package soi

import (
	"context"
	"math/rand"
	"testing"

	"dualsim/internal/bitvec"
	"dualsim/internal/proptest"
)

// chainSystem builds a pattern cycle over a long data chain — a system
// whose convergence speed is highly order-sensitive.
func chainSystem(n int) *System {
	edges := make([][2]uint32, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, [2]uint32{uint32(i), uint32(i + 1)})
	}
	mats := pairOf(n, edges...)
	s := NewSystem(n)
	v := s.AddVar("v", true)
	w := s.AddVar("w", true)
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
		var edges [][2]uint32
		for i := 0; i < r.Intn(3*n)+2; i++ {
			edges = append(edges, [2]uint32{uint32(r.Intn(n)), uint32(r.Intn(n))})
		}
		mats := pairOf(n, edges...)
		s := NewSystem(n)
		a := s.AddVar("a", true)
		b := s.AddVar("b", true)
		c := s.AddVar("c", true)
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
	proptest.Check(t, f, 80, regressionSeeds)
}

func TestSearchOrdersRespectsBounds(t *testing.T) {
	// A system with constants: search must not disturb initial bounds.
	n := 6
	mats := pairOf(n, [2]uint32{0, 1}, [2]uint32{2, 3})
	s := NewSystem(n)
	v := s.AddVar("v", true)
	s.ConstrainInit(v, bitvec.FromBits(n, 0))
	w := s.AddVar("w", true)
	s.AddEdge(v, w, mats, "p")
	stats := s.SearchOrders(context.Background(), 10, 3, Options{})
	sol := s.Solve(context.Background(), Options{Permutation: stats.BestPermutation})
	if !sol.Chi[v].Equal(bitvec.FromBits(n, 0)) || !sol.Chi[w].Equal(bitvec.FromBits(n, 1)) {
		t.Fatalf("solution drifted: v=%v w=%v", sol.Chi[v], sol.Chi[w])
	}
}
