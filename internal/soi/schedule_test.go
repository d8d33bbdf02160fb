package soi

import (
	"context"
	"math/rand"
	"testing"

	"dualsim/internal/bitmat"
	"dualsim/internal/bitvec"
	"dualsim/internal/proptest"
)

// regressionSeeds pins the counterexamples exploration has found
// so far (none yet); proptest.Check replays them before exploring.
var regressionSeeds []int64

// randomSystem draws a system with the shapes the schedule has special
// cases for: copy chains, self-loop edges, constant singletons, empty
// initial bounds and (returned separately) a Restrict.
func randomSystem(r *rand.Rand) (*System, []*bitvec.Vector) {
	n := r.Intn(150) + 2
	mats := make([]bitmat.Pair, r.Intn(3)+1)
	for i := range mats {
		edges := make([][2]uint32, r.Intn(4*n)+1)
		for j := range edges {
			edges[j] = [2]uint32{uint32(r.Intn(n)), uint32(r.Intn(n))}
		}
		mats[i] = pairOf(n, edges...)
	}
	s := NewSystem(n)
	vars := make([]Var, r.Intn(5)+1)
	restrict := make([]*bitvec.Vector, len(vars))
	for i := range vars {
		required := r.Intn(2) == 0
		switch k := r.Intn(7); k {
		case 0: // constant
			vars[i] = s.AddConst("v", r.Intn(n), required)
		case 1: // a constant the store lacks
			vars[i] = s.AddConst("v", -1, required)
		default:
			var init *bitvec.Vector
			switch k {
			case 2: // empty bound
				init = bitvec.New(n)
			case 3: // arbitrary bound
				init = bitvec.New(n)
				for j := 0; j < n; j++ {
					if r.Intn(3) > 0 {
						init.Set(j)
					}
				}
			}
			vars[i] = s.AddVar("v", required)
			if init != nil {
				s.ConstrainInit(vars[i], init)
			}
		}
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
		m := mats[r.Intn(len(mats))]
		s.AddEdge(from, to, m, "p")
		if r.Intn(2) == 0 { // the summary bounds (13), shared with the matrices
			s.ConstrainInit(from, m.F.NonEmptyRows())
			s.ConstrainInit(to, m.B.NonEmptyRows())
		}
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
		for _, b := range s.bounds[v] {
			chi[v].And(b)
		}
		if p := s.pin[v]; p != unpinned {
			one := bitvec.New(s.n)
			if p >= 0 {
				one.Set(p)
			}
			chi[v].And(one)
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
// so the cheapest-first worklist, declaration order (the identity
// permutation) and any other permutation reach the fixpoint a naive sweep
// reaches — and Verify accepts it.
func TestPropertyScheduleInvariantSolution(t *testing.T) {
	ctx := context.Background()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s, restrict := randomSystem(r)
		want := naiveSolve(s, restrict)
		identity := make([]int, s.NumIneqs())
		for i := range identity {
			identity[i] = i
		}
		schedules := []Options{{}, {Permutation: identity}}
		for i := 0; i < 10; i++ {
			schedules = append(schedules, Options{Permutation: r.Perm(s.NumIneqs())})
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
	proptest.Check(t, f, 300, regressionSeeds)
}
