// Package bitmat is a layering fixture: the bit-matrix kernel may
// import the bit-vector kernel and nothing else of the module.
package bitmat

import (
	"dualsim/internal/bitvec"
	"dualsim/internal/other" // want `internal/bitmat imports dualsim/internal/other; the bit-matrix kernel imports only internal/bitvec`
)

// Rows counts set bits through the one import it is allowed.
func Rows(w uint64) int {
	_ = other.Untagged{}
	return bitvec.Count(w)
}
