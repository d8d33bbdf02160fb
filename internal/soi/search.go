package soi

import (
	"context"
	"math/rand"
)

// This file implements the order-space exploration behind the paper's
// §5.3 remark: "From a brute force analysis we learn that the number of
// iterations may be reduced by 16, but only resulting in half the time".
// SearchOrders solves the system under many random inequality
// permutations and reports the spread of round counts, quantifying how
// much the evaluation order matters for a given query/database pair.

// OrderStats summarizes an order-space search.
type OrderStats struct {
	Trials      int
	BestRounds  int
	WorstRounds int
	// BestPermutation is the inequality permutation achieving BestRounds.
	BestPermutation []int
	// HeuristicRounds is the round count of the default cheapest-first
	// worklist, for comparison.
	HeuristicRounds int
}

// SearchOrders runs `trials` random permutations (deterministic in seed)
// plus the built-in heuristic and reports the observed round counts. The
// solution itself is identical in every case (the largest solution is
// unique); only the effort differs.
func (s *System) SearchOrders(ctx context.Context, trials int, seed int64, opts Options) OrderStats {
	stats := OrderStats{Trials: trials}

	heur := s.Solve(ctx, opts)
	stats.HeuristicRounds = heur.Stats.Rounds
	stats.BestRounds = heur.Stats.Rounds
	stats.WorstRounds = heur.Stats.Rounds
	heur.Release()

	r := rand.New(rand.NewSource(seed))
	perm := make([]int, s.NumIneqs())
	for i := range perm {
		perm[i] = i
	}
	for trial := 0; trial < trials; trial++ {
		r.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		o := opts
		o.Permutation = append([]int(nil), perm...)
		sol := s.Solve(ctx, o)
		rounds := sol.Stats.Rounds
		sol.Release()
		if rounds < stats.BestRounds {
			stats.BestRounds = rounds
			stats.BestPermutation = append([]int(nil), perm...)
		}
		if rounds > stats.WorstRounds {
			stats.WorstRounds = rounds
		}
	}
	if stats.BestPermutation == nil {
		// The heuristic was never beaten; report its order.
		stats.BestPermutation = make([]int, s.NumIneqs())
		for i := range stats.BestPermutation {
			stats.BestPermutation[i] = i
		}
	}
	return stats
}
