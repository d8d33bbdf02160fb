// Package lint is the dualsimvet invariant suite: custom static
// analyzers that turn the engine's cross-cutting correctness contracts
// — context threading, wire-stable JSON tags, lock discipline,
// allocation-free hot paths, checked durability errors, import
// direction — into compile-time gates instead of after-the-fact runtime
// tests.
//
// The analyzers are package-scoped by import path (relative to the
// dualsim module) and/or driven by source annotations:
//
//	//dualsim:hotpath   function must stay allocation-free (hotalloc)
//	//dualsim:wire      struct is wire-visible JSON (wiretags)
//
// They run through cmd/dualsimvet, either standalone (dualsimvet ./...)
// or as a `go vet -vettool` plugin.
package lint

import "dualsim/internal/lint/analysis"

// Module is the import-path root all scope prefixes hang off. The
// testdata fixture module declares the same module path so fixtures
// exercise the real scoping rules.
const Module = "dualsim"

// Analyzers returns the full suite in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		CtxflowAnalyzer,
		WiretagsAnalyzer,
		NolockioAnalyzer,
		HotallocAnalyzer,
		ErrsyncAnalyzer,
		LayeringAnalyzer,
	}
}

// inScope reports whether path (a module-relative import path already
// stripped of test-variant suffixes) falls under any of the prefixes.
func inScope(path string, prefixes ...string) bool {
	for _, p := range prefixes {
		if analysis.HasPrefixPath(path, Module+"/"+p) {
			return true
		}
	}
	return false
}
