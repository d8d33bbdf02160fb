// Package dualsim is the fixture stand-in for the module's root
// package: the layering fixtures import it from allowed and forbidden
// places.
package dualsim

// DB stands in for the session type.
type DB struct{}
