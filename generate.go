package dualsim

import (
	"dualsim/internal/datagen"
)

// GenerateLUBM synthesizes the LUBM-like benchmark dataset (Lehigh
// University Benchmark shape: 18 predicates, structurally repetitive) at
// the given scale, deterministically in the seed. FromTriples loads it.
func GenerateLUBM(universities int, seed int64) []Triple {
	return datagen.LUBM(datagen.DefaultLUBM(universities, seed))
}

// GenerateKG synthesizes the DBpedia-like knowledge graph (Zipfian
// predicate distribution, typed entities) at the given scale,
// deterministically in the seed. FromTriples loads it.
func GenerateKG(scale int, seed int64) []Triple {
	return datagen.KG(datagen.DefaultKG(scale, seed))
}
