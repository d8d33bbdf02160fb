// Package bench is a layering fixture: the offline tables are where
// oracles belong, so the same references that are flagged in
// internal/server draw no diagnostic here. The tables reproduce the
// paper on the packages below the session API, so an import of the root
// package is flagged like any other internal package's.
package bench

import (
	"dualsim" // want `internal package imports the root dualsim package; only server, cluster and wire sit above the session API`
	"dualsim/internal/engine"
)

// Table5 opens its oracle both ways.
func Table5() (int, dualsim.Option) {
	return engine.NewIndexNL() + engine.NewReference(), dualsim.WithEngine(dualsim.IndexNL)
}
