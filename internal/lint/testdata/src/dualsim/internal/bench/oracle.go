// Package bench is a layering fixture: the offline tables sit above the
// session API and are where oracles belong, so the same references that
// are flagged in internal/server draw no diagnostic here.
package bench

import (
	"dualsim"
	"dualsim/internal/engine"
)

// Table5 opens its oracle both ways.
func Table5() (int, dualsim.Option) {
	return engine.NewIndexNL() + engine.NewReference(), dualsim.WithEngine(dualsim.IndexNL)
}
