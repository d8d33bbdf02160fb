package soi

import (
	"dualsim/internal/bitmat"
	"dualsim/internal/bitvec"
)

// Verify checks that sol satisfies every inequality — the validity test of
// Sect. 4.5 ("checking whether a given relation S constitutes a valid
// assignment to E(Q) … may be performed in PTIME"). It returns the first
// violated inequality, or nil. The solver never needs it — a solution
// is valid by construction — so it is the tests' reference check.
func (s *System) Verify(sol *Solution) *Ineq {
	scratch := bitvec.New(s.n)
	full := bitvec.NewFull(s.n)
	for i := range s.ineqs {
		iq := &s.ineqs[i]
		switch iq.Kind {
		case Copy:
			if !sol.Chi[iq.X].SubsetOf(sol.Chi[iq.Y]) {
				return iq
			}
		case Edge:
			// Unrestricted multiply: X must be ≤ Y ×b A outright.
			iq.Mats.Multiply(iq.Dir, sol.Chi[iq.Y], full, scratch, bitmat.RowWise)
			if !sol.Chi[iq.X].SubsetOf(scratch) {
				return iq
			}
		}
	}
	return nil
}
