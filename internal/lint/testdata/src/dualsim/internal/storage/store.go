// Package storage stands in for the store, which owns RestrictByMask and
// may call it.
package storage

// Store stands in for the triple store.
type Store struct{}

// RestrictByMask stands in for the copy of the store the masks keep.
func (st *Store) RestrictByMask(masks []uint64) *Store { return &Store{} }

// Empty restricts by no mask: the owning package draws no diagnostic.
func (st *Store) Empty() *Store { return st.RestrictByMask(nil) }
