package storage

// IndexInvariants exposes the index checker to the external tests,
// which decode through internal/persist and query through the engine.
var IndexInvariants = indexInvariants

// DictBytes returns the bytes a store's dictionary holds for its terms,
// counting capacities: the arena, the offset and kind columns and the id
// table. It stands in for a per-owner heap row of the dictionary.
func DictBytes(st *Store) int {
	d := st.d
	d.mu.RLock()
	defer d.mu.RUnlock()
	return cap(d.arena) + 4*cap(d.offsets) + cap(d.kinds) + 4*cap(d.table)
}
