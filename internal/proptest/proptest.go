// Package proptest makes the seed-driven testing/quick properties of
// this repository reproducible. quick.Check draws its values from the
// clock by default, so a rare counterexample fails tier-1 once in a
// while and is gone on the rerun. Check pins the generator, replays the
// counterexamples found so far before anything else, and leaves
// exploration to whoever sets the environment variable (CI does, with a
// fresh value per run).
package proptest

import (
	"math/rand"
	"os"
	"strconv"
	"testing"
	"testing/quick"
)

// SeedEnv names the environment variable that reseeds every Check of a
// test run; unset, the generator seed is DefaultSeed.
const SeedEnv = "DUALSIM_QUICK_SEED"

// DefaultSeed is the generator seed of an ordinary `go test`.
const DefaultSeed = 1

// Check runs the property f — which derives all of its randomness from
// the seed it is given — first on every regression seed, then on
// maxCount seeds drawn from a generator seeded by $DUALSIM_QUICK_SEED
// (default DefaultSeed). A failure names the failing seed and the
// generator seed, so both the single case and the whole run can be
// replayed.
func Check(t *testing.T, f func(seed int64) bool, maxCount int, regression []int64) {
	t.Helper()
	for _, seed := range regression {
		if !f(seed) {
			t.Fatalf("regression seed %d fails", seed)
		}
	}
	gen := int64(DefaultSeed)
	if s := os.Getenv(SeedEnv); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("%s=%q is not an integer", SeedEnv, s)
		}
		gen = v
	}
	cfg := &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(gen))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatalf("%v\nreplay the run with %s=%d; add the failing seed to the test's regressionSeeds", err, SeedEnv, gen)
	}
}
