package bitmat

import (
	"sync"

	"dualsim/internal/bitvec"
)

// This file implements the parallel ×b kernels the paper alludes to
// ("our algorithm is also applicable … to massive parallelization
// techniques of bit-matrix operations", Sect. 1): both multiplication
// strategies partition their driving bit-vector into word ranges, fan the
// ranges out to workers with worker-local accumulators, and OR-merge.
// The results are bit-identical to the serial kernels (property-tested).
//
// The worker-local accumulators and per-range input slices are drawn from
// a shared sync.Pool rather than allocated per call: the solver invokes
// MultiplyParallel once per inequality evaluation, and a full n-bit
// vector per worker per evaluation is exactly the steady-state churn the
// bit-matrix design is meant to amortize.

// vecPool recycles the kernel-local vectors. Vectors of any length live
// in the same pool; Reset re-sizes a pooled vector to the current node
// universe, reusing its backing array whenever it fits.
var vecPool sync.Pool

func getVec(n int) *bitvec.Vector {
	if v, _ := vecPool.Get().(*bitvec.Vector); v != nil {
		v.Reset(n)
		return v
	}
	return bitvec.New(n)
}

func putVec(v *bitvec.Vector) { vecPool.Put(v) }

// MultiplyParallel computes r = (x ×b A) ∧ cand into dst like Multiply,
// distributing the work over the given number of goroutines. workers ≤ 1
// runs the serial kernel.
//
//dualsim:hotpath
func (p Pair) MultiplyParallel(dir Direction, x, cand, dst *bitvec.Vector, s Strategy, workers int) int {
	xCount := x.Count()
	dst.CopyFrom(cand)
	scratch := getVec(x.Len())
	p.Update(dir, x, dst, xCount, cand.Count(), scratch, s, workers)
	putVec(scratch)
	return xCount
}

// parallelUnionRows distributes the set bits of x (by word ranges) over
// workers, each unioning its rows into a pooled private accumulator.
//
//dualsim:hotpath
func parallelUnionRows(a Mat, x, dst *bitvec.Vector, workers int) {
	words := x.Words()
	ranges := wordRanges(len(words), workers)
	if len(ranges) <= 1 {
		a.UnionRows(x, dst)
		return
	}
	locals := make([]*bitvec.Vector, len(ranges))
	var wg sync.WaitGroup
	for ri, r := range ranges {
		wg.Add(1)
		go func(ri, lo, hi int) {
			defer wg.Done()
			// Pool traffic (and the O(n)-bit zeroing it implies) stays on
			// the worker, off the spawning goroutine's critical path.
			local := getVec(x.Len())
			slice := getVec(x.Len())
			sliceInto(slice, x, lo, hi)
			a.UnionRows(slice, local)
			putVec(slice)
			locals[ri] = local
		}(ri, r[0], r[1])
	}
	wg.Wait()
	for _, local := range locals {
		dst.Or(local)
		putVec(local)
	}
}

// parallelProbeColumns distributes the candidate columns (by word ranges
// of cand) over workers; each probes its columns against the transpose.
//
//dualsim:hotpath
func parallelProbeColumns(at Mat, x, cand, dst *bitvec.Vector, workers int) {
	words := cand.Words()
	ranges := wordRanges(len(words), workers)
	if len(ranges) <= 1 {
		cand.ForEach(func(j int) bool {
			if at.RowIntersects(j, x) {
				dst.Set(j)
			}
			return true
		})
		return
	}
	locals := make([]*bitvec.Vector, len(ranges))
	var wg sync.WaitGroup
	for ri, r := range ranges {
		wg.Add(1)
		go func(ri, lo, hi int) {
			defer wg.Done()
			local := getVec(cand.Len())
			slice := getVec(cand.Len())
			sliceInto(slice, cand, lo, hi)
			slice.ForEach(func(j int) bool {
				if at.RowIntersects(j, x) {
					local.Set(j)
				}
				return true
			})
			putVec(slice)
			locals[ri] = local
		}(ri, r[0], r[1])
	}
	wg.Wait()
	for _, local := range locals {
		dst.Or(local)
		putVec(local)
	}
}

// wordRanges splits [0, n) words into at most `workers` contiguous
// non-empty ranges.
func wordRanges(n, workers int) [][2]int {
	if n == 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	var out [][2]int
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// sliceInto overwrites dst (same length as v, already zeroed by getVec)
// with only the words of v in [lo, hi) — a copy-free-enough way to reuse
// the serial kernels per range with pooled inputs.
//
//dualsim:hotpath
func sliceInto(dst, v *bitvec.Vector, lo, hi int) {
	dst.CopyWordRange(v, lo, hi)
}
