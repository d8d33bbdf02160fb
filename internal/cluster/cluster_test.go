package cluster

import (
	"hash/fnv"
	"testing"

	"dualsim"
	"dualsim/internal/queries"
)

// ShardOf is hand-rolled so router and daemons share one obviously
// identical function; pin it to the stdlib FNV-1a it claims to be.
func TestShardOfMatchesFNV1a(t *testing.T) {
	preds := []string{"directed", "worked_with", "genre", "population", "", "ub:advisor", "a", "b"}
	for _, p := range preds {
		h := fnv.New32a()
		_, _ = h.Write([]byte(p))
		for _, n := range []int{1, 2, 3, 7, 16} {
			want := int(h.Sum32() % uint32(n))
			if got := ShardOf(p, n); got != want {
				t.Errorf("ShardOf(%q, %d) = %d, stdlib FNV-1a says %d", p, n, got, want)
			}
		}
	}
}

func TestShardOfRangeAndDeterminism(t *testing.T) {
	for _, tr := range queries.Fig1aTriples() {
		for n := 1; n <= 5; n++ {
			i := ShardOf(tr.P, n)
			if i < 0 || i >= n {
				t.Fatalf("ShardOf(%q, %d) = %d out of range", tr.P, n, i)
			}
			if j := ShardOf(tr.P, n); j != i {
				t.Fatalf("ShardOf(%q, %d) not deterministic: %d then %d", tr.P, n, i, j)
			}
		}
	}
}

func TestParseShardSpec(t *testing.T) {
	good := map[string]ShardSpec{
		"0/1":   {Index: 0, N: 1},
		"1/3":   {Index: 1, N: 3},
		" 2/4 ": {Index: 2, N: 4},
	}
	for in, want := range good {
		got, err := ParseShardSpec(in)
		if err != nil {
			t.Errorf("ParseShardSpec(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("ParseShardSpec(%q) = %+v, want %+v", in, got, want)
		}
	}
	for _, in := range []string{"", "1", "3/3", "-1/3", "1/0", "x/3", "1/y", "1/2/3"} {
		if _, err := ParseShardSpec(in); err == nil {
			t.Errorf("ParseShardSpec(%q) accepted", in)
		}
	}
	if s := (ShardSpec{Index: 1, N: 3}).String(); s != "1/3" {
		t.Errorf("String() = %q", s)
	}
}

// The shard stores must partition the full store: a disjoint cover that
// keeps whole predicates together, each triple on the shard its
// predicate places on.
func TestPartitionAndShardStore(t *testing.T) {
	ts := queries.Fig1aTriples()
	const n = 3
	full, err := dualsim.FromTriples(ts)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[dualsim.Triple]bool, len(ts))
	for i := 0; i < n; i++ {
		st, err := ShardStore(full, ShardSpec{Index: i, N: n})
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range st.Triples() {
			if ShardOf(tr.P, n) != i {
				t.Errorf("triple with predicate %q landed on shard %d, places on %d", tr.P, i, ShardOf(tr.P, n))
			}
			if seen[tr] {
				t.Errorf("triple %v on two shards", tr)
			}
			seen[tr] = true
		}
	}
	for _, tr := range full.Triples() {
		if !seen[tr] {
			t.Errorf("triple %v on no shard", tr)
		}
	}

	// A shard's node ids follow the full store's order, and it holds
	// only predicates with triples: one a Patch emptied is dropped.
	var dels []dualsim.Triple
	for _, tr := range ts {
		if tr.P == "genre" {
			dels = append(dels, tr)
		}
	}
	emptied, _, err := full.Patch(nil, dels)
	if err != nil {
		t.Fatal(err)
	}
	owner := ShardSpec{Index: ShardOf("genre", n), N: n}
	for _, st := range []*dualsim.Store{full, emptied} {
		shard, err := ShardStore(st, owner)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := shard.PredIDOf("genre"); ok != (st == full) {
			t.Errorf("the shard lists genre: %v, with %d genre triples in the store", ok, st.NumTriples()-emptied.NumTriples())
		}
		preds := 0
		for p := range uint32(st.NumPreds()) {
			if st.PredCount(p) > 0 && ShardOf(st.Pred(p), n) == owner.Index {
				preds++
			}
		}
		if shard.NumPreds() != preds {
			t.Errorf("the shard has %d predicates, %d owned ones hold triples", shard.NumPreds(), preds)
		}
		prev := -1
		for id := range uint32(shard.NumNodes()) {
			old, ok := st.TermID(shard.Term(id))
			if !ok || int(old) <= prev {
				t.Fatalf("shard node %d (%v) was %d (%v) in the full store, after %d: not its order", id, shard.Term(id), old, ok, prev)
			}
			prev = int(old)
		}
	}

	if _, err := ShardStore(full, ShardSpec{Index: 0, N: 0}); err == nil {
		t.Error("ShardStore with 0 shards accepted")
	}
}

func TestSplitDelta(t *testing.T) {
	ts := queries.Fig1aTriples()
	adds := ts[:5]
	dels := ts[5:8]
	const n = 2
	deltas, err := SplitDelta(adds, dels, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != n {
		t.Fatalf("got %d deltas, want %d", len(deltas), n)
	}
	seenAdds, seenDels := 0, 0
	for i, d := range deltas {
		for _, tr := range d.Adds {
			seenAdds++
			if ShardOf(tr.P, n) != i {
				t.Errorf("add %v on shard %d, places on %d", tr, i, ShardOf(tr.P, n))
			}
		}
		for _, tr := range d.Dels {
			seenDels++
			if ShardOf(tr.P, n) != i {
				t.Errorf("del %v on shard %d, places on %d", tr, i, ShardOf(tr.P, n))
			}
		}
	}
	if seenAdds != len(adds) || seenDels != len(dels) {
		t.Fatalf("split lost triples: %d/%d adds, %d/%d dels", seenAdds, len(adds), seenDels, len(dels))
	}
	if _, err := SplitDelta(adds, dels, 0); err == nil {
		t.Error("SplitDelta with 0 shards accepted")
	}
}
