//go:build !race

package dualsim_test

// raceEnabled reports whether the race detector instruments this build;
// allocation assertions are skipped under it.
const raceEnabled = false
