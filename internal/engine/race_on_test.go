//go:build race

package engine

// raceEnabled reports whether the race detector instruments this build;
// allocation assertions are skipped under it.
const raceEnabled = true
