// Package dualsim is the fixture stand-in for the module's root
// package: the layering fixtures import it from allowed and forbidden
// places.
package dualsim

// DB stands in for the session type.
type DB struct{}

// Option and WithEngine stand in for the session's oracle hook.
type Option func()

// EngineKind stands in for the evaluator name.
type EngineKind int

// IndexNL stands in for the oracle's kind.
const IndexNL EngineKind = 1

// WithEngine is the hook the serving packages may not reference.
func WithEngine(EngineKind) Option { return func() {} }
