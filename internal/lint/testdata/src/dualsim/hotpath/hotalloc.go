// Package hotpath is a hotalloc fixture: only functions annotated
// //dualsim:hotpath are checked, and each allocation class is reported.
package hotpath

import "fmt"

func sink(vs ...any) { _ = vs }

// concat grows a string inside a loop: one hidden allocation per turn.
//
//dualsim:hotpath
func concat(rows []int) string {
	out := ""
	for range rows {
		out += "x" // want `concatenates strings inside a loop`
	}
	return out
}

// format calls into fmt, which allocates for its interface arguments
// and its output buffer.
//
//dualsim:hotpath
func format(n int) int {
	fmt.Print(n) // want `calls fmt\.Print`
	return n
}

// literals allocates composite literals per call.
//
//dualsim:hotpath
func literals(k string) int {
	m := map[string]int{k: 1} // want `allocates a map literal`
	s := []int{1, 2, 3}       // want `allocates a slice literal`
	return m[k] + s[0]
}

// boxes passes a scalar to an interface parameter: the int escapes to
// the heap as an eface.
//
//dualsim:hotpath
func boxes(n int) {
	sink(n) // want `boxes a int into an interface`
}

// passthrough forwards an already-boxed variadic slice: no new boxing,
// clean.
//
//dualsim:hotpath
func passthrough(vs ...any) {
	sink(vs...)
}

// stringKey turns a byte buffer into a map key: the conversion copies
// the bytes to the heap, once per probe.
//
//dualsim:hotpath
func stringKey(seen map[string]bool, buf []byte) bool {
	k := string(buf) // want `converts a byte slice to a string`
	return seen[k]
}

// hashKey mixes the same bytes into an integer key, and converts only
// things that are not byte slices: clean.
//
//dualsim:hotpath
func hashKey(seen map[uint64]bool, buf []byte, r rune, s string) bool {
	h := uint64(len(string(r)) + len([]byte(s)))
	for _, b := range buf {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return seen[h]
}

// cloneRow copies a row the idiomatic way: a fresh backing array per
// call.
//
//dualsim:hotpath
func cloneRow(row []uint32) []uint32 {
	return append([]uint32(nil), row...) // want `clones a slice with append\(\[\]uint32\(nil\), …\)`
}

// carveRow takes the copy from a caller-owned buffer, and appends onto
// real slices: clean.
//
//dualsim:hotpath
func carveRow(buf, row []uint32) (out, rest []uint32) {
	out = buf[:len(row):len(row)]
	copy(out, row)
	var grown []uint32
	grown = append(grown, row...)
	return append(out[:0], grown...), buf[len(row):]
}

// plain is unannotated and may allocate freely: clean.
func plain(n int) string {
	return fmt.Sprintf("%d", n)
}
