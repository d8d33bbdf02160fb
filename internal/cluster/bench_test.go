package cluster

import (
	"testing"

	"dualsim/internal/datagen"
)

// BenchmarkShardStore cuts both shards of a 2-shard split of the
// scale-4 knowledge graph, the set-up a routed deployment pays per
// shard at start.
func BenchmarkShardStore(b *testing.B) {
	full, err := datagen.KGStore(datagen.DefaultKG(4, 42))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		for i := 0; i < 2; i++ {
			if _, err := ShardStore(full, ShardSpec{Index: i, N: 2}); err != nil {
				b.Fatal(err)
			}
		}
	}
}
