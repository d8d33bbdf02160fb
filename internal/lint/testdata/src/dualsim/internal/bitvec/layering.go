// Package bitvec is a layering fixture: the bit-vector kernel sits at
// the bottom of the module and may import nothing from it.
package bitvec

import (
	"math/bits"

	"dualsim/internal/other" // want `internal/bitvec imports dualsim/internal/other; the bit-vector kernel imports nothing in-module`
)

// Count may use the standard library freely.
func Count(w uint64) int {
	_ = other.Untagged{}
	return bits.OnesCount64(w)
}
