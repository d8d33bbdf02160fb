package dualsim_test

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"dualsim"
	"dualsim/internal/persist"
	"dualsim/internal/proptest"
)

// liveRegressionSeeds pins the counterexamples TestPropertyLiveMatchesRebuild
// has found so far; every run replays them first.
var liveRegressionSeeds []int64

// lineageTexts are answered at every epoch: a join, an OPTIONAL and a
// UNION over the generator's two predicates.
var lineageTexts = []string{
	`SELECT * WHERE { ?x <p> ?y . ?y <q> ?z . }`,
	`SELECT * WHERE { ?x <p> ?y . OPTIONAL { ?y <p> ?z . } }`,
	`SELECT * WHERE { { ?x <p> ?y . } UNION { ?x <q> ?y . } }`,
}

// lineageModel is the specification of the store lineage: a set of
// triples, the effective changes since the last compaction and the
// compaction count.
type lineageModel struct {
	set         map[string]dualsim.Triple
	pending     int
	compactions int
}

func tripleKey(t dualsim.Triple) string { return t.S.Key() + " " + t.P + " " + t.O.Key() }

// apply runs a delta on the model, dels before adds, and reports the
// number of triples whose presence changed.
func (m *lineageModel) apply(d dualsim.Delta) int {
	before := make(map[string]bool, len(m.set))
	for k := range m.set {
		before[k] = true
	}
	for _, t := range d.Dels {
		delete(m.set, tripleKey(t))
	}
	for _, t := range d.Adds {
		m.set[tripleKey(t)] = t
	}
	changed := 0
	for k := range before {
		if _, ok := m.set[k]; !ok {
			changed++
		}
	}
	for k := range m.set {
		if !before[k] {
			changed++
		}
	}
	return changed
}

func (m *lineageModel) triples() []dualsim.Triple {
	out := make([]dualsim.Triple, 0, len(m.set))
	for _, t := range m.set {
		out = append(out, t)
	}
	return out
}

func storeKeys(st *dualsim.Store) []string {
	var out []string
	for _, t := range st.Triples() {
		out = append(out, tripleKey(t))
	}
	sort.Strings(out)
	return out
}

func (m *lineageModel) keys() []string {
	out := make([]string, 0, len(m.set))
	for k := range m.set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// decodedAnswer renders a result as sorted rows of var=term cells, vars
// by name, so answers from stores with different ids and column orders
// compare equal exactly when they denote the same mappings.
func decodedAnswer(st *dualsim.Store, res *dualsim.Result) []string {
	vars := slices.Clone(res.Vars)
	sort.Strings(vars)
	rows := make([]string, 0, res.Len())
	for _, row := range res.Rows {
		var b strings.Builder
		for _, v := range vars {
			b.WriteString(v)
			b.WriteByte('=')
			if id := row[res.VarIndex(v)]; id == dualsim.Unbound {
				b.WriteString("-")
			} else {
				b.WriteString(st.Term(id).Key())
			}
			b.WriteByte(' ')
		}
		rows = append(rows, b.String())
	}
	sort.Strings(rows)
	return rows
}

// TestPropertyLiveMatchesRebuild is the differential across epochs. A
// durable session with a small compaction threshold takes a random
// stream of deltas — adds that intern fresh terms, deletes of absent
// triples, re-adds of deleted ones, a triple both added and deleted —
// and occasional explicit Compacts. At every epoch the live store holds
// the model's triples, answers the lineage texts like a fresh session
// over FromTriples of them, and reports the model's change count since
// the last compaction. At the end the data dir reopens at the same epoch
// and triples, and a WAL holding every record of the run (compact
// records included) replays to the same lineage.
func TestPropertyLiveMatchesRebuild(t *testing.T) {
	ctx := context.Background()
	root := t.TempDir()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		fail := func(format string, args ...any) bool {
			t.Logf("seed %d: "+format, append([]any{seed}, args...)...)
			return false
		}
		fresh := 0
		term := func(object bool) dualsim.Term {
			switch {
			case r.Intn(5) == 0:
				fresh++
				return dualsim.IRI(fmt.Sprintf("n%d", fresh))
			case object && r.Intn(6) == 0:
				return dualsim.Literal("a")
			}
			return dualsim.IRI([]string{"a", "b", "c", "d"}[r.Intn(4)])
		}
		triple := func() dualsim.Triple {
			return dualsim.Triple{S: term(false), P: []string{"p", "q"}[r.Intn(2)], O: term(true)}
		}

		m := &lineageModel{set: map[string]dualsim.Triple{}}
		for i := 0; i < 6; i++ {
			tr := triple()
			m.set[tripleKey(tr)] = tr
		}
		base, err := dualsim.FromTriples(m.triples())
		if err != nil {
			return fail("base: %v", err)
		}
		threshold := 2 + r.Intn(6)
		dir := filepath.Join(root, fmt.Sprintf("live-%d", seed))
		db, err := dualsim.Open(base, dualsim.WithDataDir(dir), dualsim.WithPlanCache(8),
			dualsim.WithCompactionThreshold(threshold))
		if err != nil {
			return fail("open: %v", err)
		}
		defer db.Close()
		// The twin log records every operation of the run; the session's
		// own WAL loses compact records to the checkpoint each Compact
		// takes.
		twinDir := filepath.Join(root, fmt.Sprintf("twin-%d", seed))
		twin, err := persist.Init(twinDir, base, 0)
		if err != nil {
			return fail("twin: %v", err)
		}
		defer twin.Close()

		var deleted []dualsim.Triple
		var epoch uint64
		for step := 0; step < 30; step++ {
			epoch++
			if r.Intn(8) == 0 {
				as, err := db.Compact(ctx)
				if err != nil {
					return fail("step %d: compact: %v", step, err)
				}
				m.pending = 0
				m.compactions++
				if !as.Compacted || as.Epoch != epoch {
					return fail("step %d: compact stats %+v", step, as)
				}
				if _, err := twin.AppendCompact(epoch); err != nil {
					return fail("twin append: %v", err)
				}
			} else {
				var d dualsim.Delta
				for i := r.Intn(4); i >= 0; i-- {
					d.Adds = append(d.Adds, triple())
				}
				cur := m.triples()
				for i := r.Intn(3); i > 0; i-- {
					if len(cur) > 0 && r.Intn(3) > 0 {
						d.Dels = append(d.Dels, cur[r.Intn(len(cur))])
					} else {
						d.Dels = append(d.Dels, triple()) // usually absent
					}
				}
				if len(deleted) > 0 && r.Intn(3) == 0 {
					d.Adds = append(d.Adds, deleted[r.Intn(len(deleted))])
				}
				if r.Intn(3) == 0 {
					both := triple()
					if len(cur) > 0 && r.Intn(2) == 0 {
						both = cur[r.Intn(len(cur))]
					}
					d.Adds = append(d.Adds, both)
					d.Dels = append(d.Dels, both)
				}
				deleted = append(deleted, d.Dels...)

				as, err := db.Apply(ctx, d)
				if err != nil {
					return fail("step %d: apply: %v", step, err)
				}
				m.pending += m.apply(d)
				wantCompact := m.pending >= threshold
				if wantCompact {
					m.pending = 0
					m.compactions++
				}
				if as.Epoch != epoch || as.Compacted != wantCompact || as.OverlaySize != m.pending {
					return fail("step %d: apply stats %+v, want epoch %d compacted %v overlay %d",
						step, as, epoch, wantCompact, m.pending)
				}
				if _, err := twin.AppendApply(epoch, d.Adds, d.Dels); err != nil {
					return fail("twin append: %v", err)
				}
			}

			snap := db.Snapshot()
			if snap.Epoch() != epoch || snap.OverlaySize() != m.pending || snap.Compactions() != m.compactions {
				return fail("step %d: snapshot epoch %d overlay %d compactions %d, want %d %d %d", step,
					snap.Epoch(), snap.OverlaySize(), snap.Compactions(), epoch, m.pending, m.compactions)
			}
			if got, want := storeKeys(snap.Store()), m.keys(); !slices.Equal(got, want) {
				return fail("step %d: live triples\n%v\nwant\n%v", step, got, want)
			}
			rebuilt, err := dualsim.FromTriples(m.triples())
			if err != nil {
				return fail("rebuild: %v", err)
			}
			ref, err := dualsim.Open(rebuilt)
			if err != nil {
				return fail("open rebuild: %v", err)
			}
			for _, text := range lineageTexts {
				got, _, err := snap.Query(ctx, text)
				if err != nil {
					return fail("step %d: %s: %v", step, text, err)
				}
				want, _, err := ref.Exec(ctx, text)
				if err != nil {
					return fail("step %d: %s on the rebuild: %v", step, text, err)
				}
				if g, w := decodedAnswer(snap.Store(), got), decodedAnswer(rebuilt, want); !slices.Equal(g, w) {
					return fail("step %d: %s answers\n%v\nwant\n%v", step, text, g, w)
				}
			}
			ref.Close()
		}

		if err := db.Close(); err != nil {
			return fail("close: %v", err)
		}
		reopened, err := dualsim.OpenDir(dir, dualsim.WithCompactionThreshold(threshold))
		if err != nil {
			return fail("reopen: %v", err)
		}
		defer reopened.Close()
		if reopened.Epoch() != epoch || !slices.Equal(storeKeys(reopened.Store()), m.keys()) {
			return fail("reopened at epoch %d with %d triples, want %d with %d",
				reopened.Epoch(), reopened.Store().NumTriples(), epoch, len(m.set))
		}

		if err := twin.Close(); err != nil {
			return fail("twin close: %v", err)
		}
		replayed, err := dualsim.OpenDir(twinDir, dualsim.WithCompactionThreshold(threshold))
		if err != nil {
			return fail("replay: %v", err)
		}
		defer replayed.Close()
		rs := replayed.Snapshot()
		if rs.Epoch() != epoch || rs.OverlaySize() != m.pending || rs.Compactions() != m.compactions ||
			!slices.Equal(storeKeys(rs.Store()), m.keys()) {
			return fail("replay reached epoch %d overlay %d compactions %d, want %d %d %d",
				rs.Epoch(), rs.OverlaySize(), rs.Compactions(), epoch, m.pending, m.compactions)
		}
		return true
	}
	proptest.Check(t, f, 30, liveRegressionSeeds)
}
