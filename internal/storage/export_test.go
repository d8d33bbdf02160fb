package storage

// IndexInvariants exposes the index checker to the external tests,
// which decode through internal/persist and query through the engine.
var IndexInvariants = indexInvariants
