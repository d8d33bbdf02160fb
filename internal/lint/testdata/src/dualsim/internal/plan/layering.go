// Package plan is a layering fixture: an engine-side package that grew
// an import of the session API it is supposed to sit below.
package plan

import "dualsim" // want `internal package imports the root dualsim package; only server, cluster and wire sit above the session API`

// Session leaks the root package's type into the planner.
func Session() *dualsim.DB { return nil }
