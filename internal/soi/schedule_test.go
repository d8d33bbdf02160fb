package soi

import (
	"context"
	"math/rand"
	"testing"

	"dualsim/internal/bitmat"
	"dualsim/internal/bitvec"
	"dualsim/internal/proptest"
)

// scheduleRegressionSeeds pins the counterexamples exploration has found
// so far (none yet); proptest.Check replays them before exploring.
var scheduleRegressionSeeds []int64

// randomSystem draws a system with the shapes the schedule has special
// cases for: copy chains, self-loop edges, constant singletons, empty
// initial bounds and (returned separately) a Restrict — over CSR or
// Compressed matrices.
func randomSystem(r *rand.Rand) (*System, []*bitvec.Vector) {
	n := r.Intn(150) + 2
	compressed := r.Intn(2) == 0
	mats := make([]bitmat.Pair, r.Intn(3)+1)
	for i := range mats {
		cells := make([]bitmat.Cell, r.Intn(4*n)+1)
		for j := range cells {
			cells[j] = bitmat.Cell{Row: uint32(r.Intn(n)), Col: uint32(r.Intn(n))}
		}
		mats[i] = bitmat.NewPair(n, cells)
		if compressed {
			mats[i] = bitmat.CompressPair(mats[i])
		}
	}
	s := NewSystem(n)
	vars := make([]Var, r.Intn(5)+1)
	restrict := make([]*bitvec.Vector, len(vars))
	for i := range vars {
		var init *bitvec.Vector
		switch r.Intn(6) {
		case 0: // constant
			init = bitvec.FromBits(n, r.Intn(n))
		case 1: // empty bound
			init = bitvec.New(n)
		case 2: // arbitrary bound
			init = bitvec.New(n)
			for j := 0; j < n; j++ {
				if r.Intn(3) > 0 {
					init.Set(j)
				}
			}
		}
		vars[i] = s.AddVar("v", init, r.Intn(2) == 0)
		if r.Intn(4) == 0 {
			restrict[i] = bitvec.NewFull(n)
			restrict[i].Clear(r.Intn(n))
		}
	}
	for e := r.Intn(6) + 1; e > 0; e-- {
		from, to := vars[r.Intn(len(vars))], vars[r.Intn(len(vars))]
		if r.Intn(5) == 0 {
			to = from // self-loop
		}
		s.AddEdge(from, to, mats[r.Intn(len(mats))], "p")
	}
	for c := r.Intn(3); c > 0 && len(vars) > 1; c-- {
		i := r.Intn(len(vars) - 1)
		s.AddCopy(vars[i+1], vars[i]) // chains: v1 ≤ v0, v2 ≤ v1, …
	}
	return s, restrict
}

// naiveSolve is the reference: evaluate every inequality, through the
// out-of-place Multiply, until a whole sweep changes nothing.
func naiveSolve(s *System, restrict []*bitvec.Vector) []*bitvec.Vector {
	chi := make([]*bitvec.Vector, s.NumVars())
	for v := range chi {
		chi[v] = bitvec.NewFull(s.n)
		if s.init[v] != nil {
			chi[v].CopyFrom(s.init[v])
		}
		if restrict[v] != nil {
			chi[v].And(restrict[v])
		}
	}
	r := bitvec.New(s.n)
	for changed := true; changed; {
		changed = false
		for _, iq := range s.ineqs {
			if iq.Kind == Copy {
				changed = chi[iq.X].And(chi[iq.Y]) || changed
				continue
			}
			iq.Mats.Multiply(iq.Dir, chi[iq.Y], chi[iq.X], r, bitmat.RowWise)
			changed = chi[iq.X].And(r) || changed
		}
	}
	return chi
}

// TestPropertyScheduleInvariantSolution: the largest solution is unique,
// so the cheapest-first worklist, declaration order, any permutation, any
// ×b strategy and any worker count reach the fixpoint a naive sweep
// reaches — and Verify accepts it.
func TestPropertyScheduleInvariantSolution(t *testing.T) {
	ctx := context.Background()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s, restrict := randomSystem(r)
		want := naiveSolve(s, restrict)
		schedules := []Options{
			{},
			{Order: DeclarationOrder},
			{Workers: 2},
			{Strategy: bitmat.RowWise},
			{Strategy: bitmat.ColWise, Workers: 2},
		}
		perm := r.Perm(s.NumIneqs())
		for i := 0; i < 10; i++ {
			r.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
			schedules = append(schedules, Options{Permutation: append([]int(nil), perm...), Workers: 2 * (i % 2)})
		}
		for i, opts := range schedules {
			opts.Restrict = restrict
			sol := s.Solve(ctx, opts)
			sum := 0
			for v := range want {
				if !sol.Chi[v].Equal(want[v]) {
					t.Logf("seed %d schedule %d: χ(x%d) = %v, want %v", seed, i, v, sol.Chi[v], want[v])
					return false
				}
				sum += want[v].Count()
			}
			if bad := s.Verify(sol); bad != nil {
				t.Logf("seed %d schedule %d: Verify rejects %v", seed, i, bad)
				return false
			}
			st := sol.Stats
			if st.ChiFinal != sum || st.ChiInit < st.ChiFinal || st.Evaluations < st.RowWise+st.ColWise+st.Copies || st.Rounds > st.Evaluations {
				t.Logf("seed %d schedule %d: inconsistent stats %+v (Σ|χ| = %d)", seed, i, st, sum)
				return false
			}
			sol.Release()
		}
		return true
	}
	proptest.Check(t, f, 300, scheduleRegressionSeeds)
}
