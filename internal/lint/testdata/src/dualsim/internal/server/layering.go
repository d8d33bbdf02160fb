// Package server is a layering fixture: the serving layer is built on
// the session API, so its root import is allowed and draws no
// diagnostic.
package server

import "dualsim"

// Serve takes a session, as the real protocol core's local backend does.
func Serve(db *dualsim.DB) { _ = db }
