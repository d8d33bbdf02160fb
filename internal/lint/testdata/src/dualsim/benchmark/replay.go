// Package main stands in for the benchmark module, whose staged replay
// times the materialization and may call it.
package main

import "dualsim/internal/prune"

func main() {
	var p prune.Pruning
	_ = p.Store()
}
