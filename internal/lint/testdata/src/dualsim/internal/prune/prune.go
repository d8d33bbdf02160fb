// Package prune stands in for the pruning package, which materializes
// its pruned store for the paper's tables and may do so.
package prune

import "dualsim/internal/storage"

// Pruning stands in for the kept-triple masks of one query.
type Pruning struct{ st *storage.Store }

// Store stands in for the materialized pruned store.
func (p *Pruning) Store() *storage.Store { return p.st.RestrictByMask(nil) }

// Filter stands in for the view of the unpruned store the session reads.
func (p *Pruning) Filter() []uint64 { return nil }
