package server

import (
	"dualsim"
	"dualsim/internal/engine"
)

// Oracles is a layering fixture: a serving package reaching for an
// oracle — by constructor, by value, or through the session hook — is
// flagged; the executor's constructor is not.
func Oracles() []any {
	pick := engine.NewReference // want `serving package references engine\.NewReference`
	return []any{
		engine.NewVolcano(),
		engine.NewIndexNL(),                 // want `serving package references engine\.NewIndexNL`
		dualsim.WithEngine(dualsim.IndexNL), // want `serving package references dualsim\.WithEngine`
		pick,
	}
}
