package soi

import (
	"context"
	"math/rand"
)

// This file implements the order-space exploration behind the paper's
// §5.3 remark: "From a brute force analysis we learn that the number of
// iterations may be reduced by 16, but only resulting in half the time".
// SearchOrders solves the system under many random inequality
// permutations and reports the spread of inequality evaluations — the
// effort the paper's iterations count — quantifying how much the
// evaluation order matters for a given query/database pair.

// OrderStats summarizes an order-space search.
type OrderStats struct {
	Trials           int
	BestEvaluations  int
	WorstEvaluations int
	// BestPermutation is the inequality permutation achieving
	// BestEvaluations.
	BestPermutation []int
	// HeuristicEvaluations is the evaluation count of the default
	// cheapest-first worklist, for comparison.
	HeuristicEvaluations int
}

// SearchOrders runs `trials` random permutations (deterministic in seed)
// plus the built-in heuristic and reports the observed evaluation
// counts. The solution itself is identical in every case (the largest
// solution is unique); only the effort differs.
func (s *System) SearchOrders(ctx context.Context, trials int, seed int64, opts Options) OrderStats {
	stats := OrderStats{Trials: trials}

	heur := s.Solve(ctx, opts)
	stats.HeuristicEvaluations = heur.Stats.Evaluations
	stats.BestEvaluations = heur.Stats.Evaluations
	stats.WorstEvaluations = heur.Stats.Evaluations
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
		evals := sol.Stats.Evaluations
		sol.Release()
		if evals < stats.BestEvaluations {
			stats.BestEvaluations = evals
			stats.BestPermutation = append([]int(nil), perm...)
		}
		if evals > stats.WorstEvaluations {
			stats.WorstEvaluations = evals
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
