package main

import (
	"testing"

	"dualsim/internal/prune"
)

// A test may materialize the pruned store to check the filter against it.
func TestRebuild(t *testing.T) {
	var p prune.Pruning
	_ = p.Store()
}
