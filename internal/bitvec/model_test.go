package bitvec

import (
	"math/bits"
	"math/rand"
	"testing"

	"dualsim/internal/proptest"
)

// modelRegressionSeeds pins the counterexamples exploration has found so
// far (none yet); proptest.Check replays them before exploring.
var modelRegressionSeeds []int64

// checkModel compares v bit by bit with its []bool model and checks the
// summary invariant: no non-zero word under a clear summary bit, no
// summary bit beyond the last word, no set bit beyond the length.
func checkModel(t *testing.T, op string, v *Vector, model []bool) bool {
	t.Helper()
	if v.Len() != len(model) {
		t.Logf("%s: Len %d, model %d", op, v.Len(), len(model))
		return false
	}
	for w, x := range v.words {
		if x != 0 && v.sum[w>>wordLog]&(1<<uint(w&wordMask)) == 0 {
			t.Logf("%s: word %d = %#x under a clear summary bit", op, w, x)
			return false
		}
	}
	for k, s := range v.sum {
		for ; s != 0; s &= s - 1 {
			if w := k<<wordLog | bits.TrailingZeros64(s); w >= len(v.words) {
				t.Logf("%s: summary bit %d beyond %d words", op, w, len(v.words))
				return false
			}
		}
	}
	count := 0
	for i, want := range model {
		if v.Get(i) != want {
			t.Logf("%s: bit %d = %v, model %v", op, i, v.Get(i), want)
			return false
		}
		if want {
			count++
		}
	}
	if rem := v.n & wordMask; rem != 0 && v.words[len(v.words)-1]>>uint(rem) != 0 {
		t.Logf("%s: bits set beyond Len", op)
		return false
	}
	// The read side must agree with the model through a summary that may
	// be looser than the contents.
	if v.Count() != count || v.IsEmpty() != (count == 0) {
		t.Logf("%s: Count %d IsEmpty %v, model count %d", op, v.Count(), v.IsEmpty(), count)
		return false
	}
	next := 0
	ok := true
	v.ForEach(func(i int) bool {
		for next < i && !model[next] {
			next++
		}
		ok = ok && next == i && v.NextSet(i) == i
		next = i + 1
		return ok
	})
	for ; ok && next < len(model); next++ {
		ok = !model[next]
	}
	if !ok {
		t.Logf("%s: ForEach/NextSet disagree with the model near %d", op, next)
	}
	return ok
}

// modelOperand draws a second vector of length n (and its model) at a
// random density, so binary operations meet empty, sparse, clustered and
// full operands.
func modelOperand(r *rand.Rand, n int) (*Vector, []bool) {
	v, m := New(n), make([]bool, n)
	if n == 0 {
		return v, m
	}
	switch r.Intn(4) {
	case 0: // empty
	case 1: // a few bits
		for k := r.Intn(4) + 1; k > 0; k-- {
			i := r.Intn(n)
			v.Set(i)
			m[i] = true
		}
	case 2: // one run
		lo := r.Intn(n)
		for i := lo; i < n && i < lo+n/3+1; i++ {
			v.Set(i)
			m[i] = true
		}
	default: // full
		v.Fill()
		for i := range m {
			m[i] = true
		}
	}
	return v, m
}

// TestPropertyVectorMatchesModel drives random sequences of every
// mutator against a []bool model and checks contents and summary
// invariant after each step — across the lengths where the word and the
// summary-word boundaries sit.
func TestPropertyVectorMatchesModel(t *testing.T) {
	lengths := []int{0, 1, 63, 64, 65, 4095, 4096, 4097, 9000}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := lengths[r.Intn(len(lengths))]
		v, model := New(n), make([]bool, n)
		for step := 0; step < 60; step++ {
			op := ""
			w, wm := modelOperand(r, n)
			switch k := r.Intn(16); {
			case k == 0 && n > 0:
				op = "Set"
				i := r.Intn(n)
				v.Set(i)
				model[i] = true
			case k == 1 && n > 0:
				op = "Clear"
				i := r.Intn(n)
				v.Clear(i)
				model[i] = false
			case k == 2:
				op = "Fill"
				v.Fill()
				for i := range model {
					model[i] = true
				}
			case k == 3:
				op = "Zero"
				v.Zero()
				clear(model)
			case k == 4:
				op = "CopyFrom"
				v.CopyFrom(w)
				copy(model, wm)
			case k == 5:
				op = "And"
				before := v.Clone()
				changed := v.And(w)
				for i := range model {
					model[i] = model[i] && wm[i]
				}
				if changed == v.Equal(before) {
					t.Logf("And reported changed=%v", changed)
					return false
				}
			case k == 6:
				op = "Or"
				before := v.Clone()
				changed := v.Or(w)
				for i := range model {
					model[i] = model[i] || wm[i]
				}
				if changed == v.Equal(before) {
					t.Logf("Or reported changed=%v", changed)
					return false
				}
			case k == 7:
				op = "AndNot"
				before := v.Clone()
				changed := v.AndNot(w)
				for i := range model {
					model[i] = model[i] && !wm[i]
				}
				if changed == v.Equal(before) {
					t.Logf("AndNot reported changed=%v", changed)
					return false
				}
			case k == 8:
				op = "Retain"
				left := v.Retain(func(i int) bool { return wm[i] })
				want := 0
				for i := range model {
					model[i] = model[i] && wm[i]
					if model[i] {
						want++
					}
				}
				if left != want {
					t.Logf("Retain returned %d, model %d", left, want)
					return false
				}
			case k == 9 && n > 0:
				op = "SetAll"
				ids := make([]uint32, r.Intn(6))
				for i := range ids {
					ids[i] = uint32(r.Intn(n))
					model[ids[i]] = true
				}
				v.SetAll(ids)
			case k == 10:
				op = "AndInto"
				a, am := modelOperand(r, n)
				AndInto(v, a, w)
				for i := range model {
					model[i] = am[i] && wm[i]
				}
			case k == 11:
				op = "OrInto"
				a, am := modelOperand(r, n)
				OrInto(v, a, w)
				for i := range model {
					model[i] = am[i] || wm[i]
				}
			case k == 12:
				op = "CopyWordRange"
				words := len(v.Words())
				lo := r.Intn(words + 1)
				hi := lo + r.Intn(words-lo+1)
				v.CopyWordRange(w, lo, hi)
				for i := lo * wordBits; i < hi*wordBits && i < n; i++ {
					model[i] = wm[i]
				}
			case k == 13:
				op = "Compressed.OrInto"
				Compress(w).OrInto(v)
				for i := range model {
					model[i] = model[i] || wm[i]
				}
			case k == 14:
				op = "Reset"
				n = lengths[r.Intn(len(lengths))]
				v.Reset(n)
				model = make([]bool, n)
			default:
				op = "Clone"
				v = v.Clone()
			}
			if !checkModel(t, op, v, model) {
				t.Logf("seed %d step %d", seed, step)
				return false
			}
			// The binary predicates, against the same model.
			if op != "Reset" {
				sub, inter, eq := true, false, true
				for i := range model {
					sub = sub && (!model[i] || wm[i])
					inter = inter || model[i] && wm[i]
					eq = eq && model[i] == wm[i]
				}
				if v.SubsetOf(w) != sub || v.Intersects(w) != inter || v.Equal(w) != eq {
					t.Logf("seed %d step %d after %s: SubsetOf/Intersects/Equal disagree with the model", seed, step, op)
					return false
				}
			}
		}
		return true
	}
	proptest.Check(t, f, 300, modelRegressionSeeds)
}
