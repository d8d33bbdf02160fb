package router

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"dualsim"
	"dualsim/client"
	"dualsim/internal/cluster"
	"dualsim/internal/proptest"
)

// regressionSeeds and epochSeeds pin the counterexamples
// TestPropertyRouterMatchesSingleNode and TestPropertyRouterAcrossEpochs
// have found; proptest.Check replays them before exploring.
var regressionSeeds, epochSeeds []int64

// Odd terms: the literals need every escape of the row codec, the IRIs
// carry a quote, a backslash and the bytes encoding/json escapes for HTML.
var (
	diffLiterals = []string{`plain`, `say "hi"`, `back\slash`, "line\nbreak", "tab\tctl\x01", "ünï 😀", `<&>`, "sep\u2028"}
	diffNodes    = []string{"n0", "n1", "n2", "n3", "n4", "n5", `q"uo\te`, "a&b<c>"}
)

// diffStore draws a small store whose edges carry several predicates
// each, so branches that differ only in a predicate overlap.
func diffStore(r *rand.Rand) []dualsim.Triple {
	var ts []dualsim.Triple
	for i := 0; i < 14; i++ {
		s, o := diffNodes[r.Intn(len(diffNodes))], diffNodes[r.Intn(len(diffNodes))]
		for p := 0; p < 5; p++ {
			if r.Intn(2) == 0 {
				ts = append(ts, dualsim.T(s, "p"+strconv.Itoa(p), o))
			}
		}
	}
	for i := 0; i < 6; i++ {
		ts = append(ts, dualsim.TL(diffNodes[r.Intn(len(diffNodes))], "p"+strconv.Itoa(r.Intn(5)), diffLiterals[r.Intn(len(diffLiterals))]))
	}
	return ts
}

// diffBranch draws one UNION branch of the given shape with fresh
// predicates and constants.
func diffBranch(r *rand.Rand, shape int) string {
	p := func() string { return "<p" + strconv.Itoa(r.Intn(5)) + ">" }
	n := func() string { return "<" + diffNodes[r.Intn(6)] + ">" }
	switch shape {
	case 0:
		return "?a " + p() + " ?b ."
	case 1:
		return "?a " + p() + " ?b . ?b " + p() + " ?c ."
	case 2:
		return "?a " + p() + " ?b . OPTIONAL { ?b " + p() + " ?c . }"
	case 3:
		return "?a " + p() + " " + n() + " ."
	case 4:
		return n() + " " + p() + " " + n() + " ." // zero-width
	default:
		return "?a " + p() + " ?b . FILTER(?b != " + n() + ")"
	}
}

// diffQuery draws a top-level UNION of two or three branches, and
// returns its branches' texts too.
func diffQuery(r *rand.Rand) (string, []string) {
	k := 2 + r.Intn(2)
	shapes := make([]int, k)
	for i := range shapes {
		shapes[i] = r.Intn(6)
		if i > 0 && r.Intn(2) == 0 {
			// Collide on purpose: the same schema again, or the OPTIONAL
			// shape beside the plain edge it extends.
			shapes[i] = shapes[r.Intn(i)]
			if shapes[i] == 2 {
				shapes[i] = 0
			}
		}
	}
	branches := make([]string, k)
	for i, s := range shapes {
		branches[i] = "{ " + diffBranch(r, s) + " }"
	}
	q := "SELECT * WHERE { " + strings.Join(branches, " UNION ") + " }"
	if r.Intn(3) == 0 {
		q += fmt.Sprintf(" LIMIT %d OFFSET %d", 1+r.Intn(6), r.Intn(4))
	}
	return q, branches
}

// longQuery draws a top-level UNION whose first branch is one
// predicate's triples three times over, a cross product: one shard owns
// it, and it runs to hundreds of rows, past the rows the server writes
// between flushes, so the router flushes in the middle of a branch.
func longQuery(r *rand.Rand) (string, []string) {
	p := "<p" + strconv.Itoa(r.Intn(5)) + ">"
	branches := []string{
		"{ ?a " + p + " ?b . ?c " + p + " ?d . ?e " + p + " ?f . }",
		"{ " + diffBranch(r, r.Intn(6)) + " }",
	}
	return "SELECT * WHERE { " + strings.Join(branches, " UNION ") + " }", branches
}

// streamVia reads src row by row and returns its vars and its rows as
// rowKey renders them.
func streamVia(t *testing.T, url, src string) ([]string, []string, error) {
	t.Helper()
	c, err := client.New(url)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.QueryStream(context.Background(), src)
	if err != nil {
		return nil, nil, err
	}
	defer st.Close()
	var keys []string
	for st.Next() {
		keys = append(keys, rowKey(st.Row()))
	}
	return st.Vars(), keys, st.Err()
}

// rowKey renders a decoded row unambiguously; nil is unbound.
func rowKey(row []*string) string {
	parts := make([]string, len(row))
	for i, v := range row {
		if v == nil {
			parts[i] = "∅"
		} else {
			parts[i] = strconv.Quote(*v)
		}
	}
	return strings.Join(parts, " ")
}

// canonicalLess is the router's window order: unbound first, then the
// decoded text, column by column.
func canonicalLess(x, y []*string) bool {
	for k := range x {
		switch {
		case x[k] == nil && y[k] == nil:
		case x[k] == nil || y[k] == nil:
			return x[k] == nil
		case *x[k] != *y[k]:
			return *x[k] < *y[k]
		}
	}
	return false
}

// startRouters serves full over 2 and over 3 predicate-hash shards, each
// behind a probed router, keyed by the shard count.
func startRouters(t *testing.T, full *dualsim.Store) (map[int]*Router, map[int]string) {
	routers, urls := map[int]*Router{}, map[int]string{}
	for _, n := range []int{2, 3} {
		var endpoints [][]string
		for i := 0; i < n; i++ {
			st, err := cluster.ShardStore(full, cluster.ShardSpec{Index: i, N: n})
			if err != nil {
				t.Fatal(err)
			}
			endpoints = append(endpoints, []string{startShard(t, st).URL})
		}
		rt, err := New(endpoints)
		if err != nil {
			t.Fatal(err)
		}
		rt.Probe(context.Background())
		hs := httptest.NewServer(rt.Handler())
		t.Cleanup(hs.Close)
		routers[n], urls[n] = rt, hs.URL
	}
	return routers, urls
}

// TestPropertyRouterMatchesSingleNode is the router's differential
// property: over 2 and 3 predicate-hash shards, a random top-level UNION
// — branches whose answers overlap, branches that differ only in an
// OPTIONAL variable, zero-width branches, escaped literals, gathered and
// pushed-down branches side by side, LIMIT/OFFSET windows — answers with
// the vars of a single node over the whole store, in the same order, and
// the same rows as a set. A window holds exactly the rows the router's
// canonical order puts there when no branch was cut short by the
// pushed-down limit, and otherwise as many distinct rows of the answer,
// in that order. Read row by row (QueryStream), a second request
// carries the vars and rows read whole (Query) in the same order, also
// when the first branch is longer than a flush (longQuery, drawn after
// the others).
func TestPropertyRouterMatchesSingleNode(t *testing.T) {
	var overlaps, windows, gathers, zeroWidth, long, relayed, meeting int
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		full, err := dualsim.FromTriples(diffStore(r))
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		single := startShard(t, full).URL
		routers, urls := startRouters(t, full)

		for qi := 0; qi < 5; qi++ {
			draw := diffQuery
			if qi == 4 {
				draw = longQuery
			}
			src, branches := draw(r)
			q, err := dualsim.ParseQuery(src)
			if err != nil {
				t.Fatalf("seed %d: generated %q: %v", seed, src, err)
			}
			whole := strings.Join(strings.Fields(src), " ")
			if q.Limit > 0 {
				whole = whole[:strings.LastIndex(whole, " LIMIT ")]
			}
			want := queryVia(t, single, whole)
			sum, cut := 0, false
			for i, b := range branches {
				n := len(queryVia(t, single, "SELECT * WHERE "+b).Rows)
				if i == 0 && n > 256 {
					long++
				}
				sum += n
				cut = cut || q.Limit > 0 && n > q.Limit+q.Offset
				if strings.HasPrefix(b, "{ <") {
					zeroWidth++
				}
			}
			if len(want.Rows) < sum {
				overlaps++
			}
			for _, n := range []int{2, 3} {
				got := queryVia(t, urls[n], src)
				if !slices.Equal(got.Vars, want.Vars) {
					t.Logf("seed %d, %d shards, %s: vars %v, single node %v", seed, n, src, got.Vars, want.Vars)
					return false
				}
				single := slices.Clone(want.Rows)
				keys, wantKeys := make([]string, len(got.Rows)), make([]string, len(single))
				for i, row := range got.Rows {
					keys[i] = rowKey(row)
				}
				for i, row := range single {
					wantKeys[i] = rowKey(row)
				}
				vars, streamed, err := streamVia(t, urls[n], src)
				if err != nil || !slices.Equal(vars, got.Vars) || !slices.Equal(streamed, keys) {
					t.Logf("seed %d, %d shards, %s: streamed %v %q (%v)\n read whole %v %q", seed, n, src, vars, streamed, err, got.Vars, keys)
					return false
				}
				if q.Limit == 0 {
					sort.Strings(keys)
					sort.Strings(wantKeys)
					if !reflect.DeepEqual(keys, wantKeys) {
						t.Logf("seed %d, %d shards, %s:\n router %q\n single %q", seed, n, src, keys, wantKeys)
						return false
					}
					continue
				}
				windows++
				inAnswer := map[string]bool{}
				for _, k := range wantKeys {
					inAnswer[k] = true
				}
				sort.Slice(single, func(i, j int) bool { return canonicalLess(single[i], single[j]) })
				lo := min(q.Offset, len(single))
				window := single[lo:min(len(single), lo+q.Limit)]
				if !cut {
					wantKeys = wantKeys[:len(window)]
					for i, row := range window {
						wantKeys[i] = rowKey(row)
					}
					if !reflect.DeepEqual(keys, wantKeys) {
						t.Logf("seed %d, %d shards, %s:\n router window %q\n want         %q", seed, n, src, keys, wantKeys)
						return false
					}
					continue
				}
				seen := map[string]bool{}
				for i, row := range got.Rows {
					if !inAnswer[keys[i]] || seen[keys[i]] || i > 0 && canonicalLess(row, got.Rows[i-1]) {
						t.Logf("seed %d, %d shards, %s: window row %d %s is foreign, repeated or out of order", seed, n, src, i, keys[i])
						return false
					}
					seen[keys[i]] = true
				}
				if len(got.Rows) != len(window) {
					t.Logf("seed %d, %d shards, %s: window of %d rows, want %d", seed, n, src, len(got.Rows), len(window))
					return false
				}
			}
		}
		for _, rt := range routers {
			gathers += int(rt.gathers.Value())
			relayed += int(rt.relayed.Value())
			meeting += int(rt.meeting.Value())
		}
		return true
	}
	proptest.Check(t, f, 40, regressionSeeds)
	// The generator must reach what the property is about: both ways a
	// row crosses the router, relayed as a shard wrote it and read by its
	// cells against the seen set, each by thousands of rows. The default
	// generator seed reads 73 782 relayed and 6 052 meeting rows, so the
	// floors fail a generator that loses most of either.
	t.Logf("%d overlapping unions, %d windows, %d gathered branches, %d zero-width branches, %d first branches past a flush, %d relayed rows, %d meeting rows",
		overlaps, windows, gathers, zeroWidth, long, relayed, meeting)
	if overlaps == 0 || windows == 0 || gathers == 0 || zeroWidth == 0 || long == 0 || relayed < 10_000 || meeting < 1000 {
		t.Errorf("generator coverage: %d overlapping unions, %d windows, %d gathered branches, %d zero-width branches, %d first branches past a flush; want each > 0; %d relayed rows, want >= 10 000; %d meeting rows, want >= 1000",
			overlaps, windows, gathers, zeroWidth, long, relayed, meeting)
	}
}

// diffDelta draws a delta over one predicate (now and then two), so it
// moves one shard's epoch and leaves the others': adds over the
// generator's nodes and literals, and deletes of triples the store holds.
func diffDelta(r *rand.Rand, have []dualsim.Triple) dualsim.Delta {
	preds := []string{"p" + strconv.Itoa(r.Intn(5))}
	if p := "p" + strconv.Itoa(r.Intn(5)); r.Intn(4) == 0 && p != preds[0] {
		preds = append(preds, p)
	}
	var d dualsim.Delta
	for _, p := range preds {
		for range 1 + r.Intn(3) {
			s := diffNodes[r.Intn(len(diffNodes))]
			if r.Intn(4) == 0 {
				d.Adds = append(d.Adds, dualsim.TL(s, p, diffLiterals[r.Intn(len(diffLiterals))]))
			} else {
				d.Adds = append(d.Adds, dualsim.T(s, p, diffNodes[r.Intn(len(diffNodes))]))
			}
		}
		for _, tr := range have {
			if tr.P == p && r.Intn(3) == 0 && !slices.Contains(d.Adds, tr) {
				d.Dels = append(d.Dels, tr)
			}
		}
	}
	return d
}

// applied is ts after d (whose adds and deletes are disjoint), in order,
// without repeats.
func applied(ts []dualsim.Triple, d dualsim.Delta) []dualsim.Triple {
	var out []dualsim.Triple
	for _, tr := range append(ts, d.Adds...) {
		if !slices.Contains(d.Dels, tr) && !slices.Contains(out, tr) {
			out = append(out, tr)
		}
	}
	return out
}

// heldExactly checks that every gather the router holds has exactly the
// terms its triples use, as a union of fresh slices has. Gathers are
// assembled over the held slices of earlier ones; were storage.Union to
// intern into its first part, a later union over that part would carry
// the terms of an earlier one too.
func heldExactly(rt *Router) error {
	rt.held.mu.Lock()
	defer rt.held.mu.Unlock()
	for _, h := range rt.held.held {
		st := h.db.Store()
		used := map[dualsim.Term]bool{}
		for _, tr := range st.Triples() {
			used[tr.S], used[tr.O] = true, true
		}
		if st.NumNodes() != len(used) {
			return fmt.Errorf("held gather %v has %d terms, its %d triples use %d", h.key, st.NumNodes(), st.NumTriples(), len(used))
		}
	}
	return nil
}

// TestPropertyRouterAcrossEpochs is the differential property across
// epochs: the same texts run again and again over 2 and 3 shards, with a
// random delta applied through each router and to the single node
// between the rounds, and every execution answers the single node's
// vars and rows at that epoch (rows as a set). A repeat meets held
// gathers; a delta moves one or two predicates' shards, so the next
// gather finds some slices unchanged and others not.
func TestPropertyRouterAcrossEpochs(t *testing.T) {
	ctx := context.Background()
	var gathers, reuses int
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		have := diffStore(r)
		full, err := dualsim.FromTriples(have)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		single := startShard(t, full).URL
		routers, urls := startRouters(t, full)
		texts := make([]string, 3)
		for i := range texts {
			src, _ := diffQuery(r)
			if i := strings.Index(src, " LIMIT "); i >= 0 {
				src = src[:i]
			}
			texts[i] = src
		}
		sc, err := client.New(single)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 5; round++ {
			for rep := 0; rep < 2; rep++ {
				for _, src := range texts {
					want := queryVia(t, single, src)
					for _, n := range []int{2, 3} {
						got := queryVia(t, urls[n], src)
						if !slices.Equal(got.Vars, want.Vars) {
							t.Logf("seed %d, round %d, %d shards, %s: vars %v, single node %v", seed, round, n, src, got.Vars, want.Vars)
							return false
						}
						rows := want.Rows
						keys, wantKeys := make([]string, len(got.Rows)), make([]string, len(rows))
						for i, row := range got.Rows {
							keys[i] = rowKey(row)
						}
						for i, row := range rows {
							wantKeys[i] = rowKey(row)
						}
						sort.Strings(keys)
						sort.Strings(wantKeys)
						if !reflect.DeepEqual(keys, wantKeys) {
							t.Logf("seed %d, round %d, %d shards, %s:\n router %q\n single %q", seed, round, n, src, keys, wantKeys)
							return false
						}
					}
				}
			}
			for n, rt := range routers {
				if err := heldExactly(rt); err != nil {
					t.Logf("seed %d, round %d, %d shards: %v", seed, round, n, err)
					return false
				}
			}
			d := diffDelta(r, have)
			have = applied(have, d)
			for _, n := range []int{2, 3} {
				rc, err := client.New(urls[n])
				if err != nil {
					t.Fatal(err)
				}
				if _, err := rc.ApplyDelta(ctx, d); err != nil {
					t.Fatalf("seed %d: apply via %d shards: %v", seed, n, err)
				}
			}
			if _, err := sc.ApplyDelta(ctx, d); err != nil {
				t.Fatalf("seed %d: apply: %v", seed, err)
			}
		}
		for _, rt := range routers {
			gathers += int(rt.gathers.Value())
			reuses += int(rt.reuses.Value())
		}
		return true
	}
	proptest.Check(t, f, 20, epochSeeds)
	t.Logf("%d gathered branches, %d answered on a held session", gathers, reuses)
	if reuses == 0 || reuses == gathers {
		t.Errorf("generator coverage: %d gathered branches, %d reuses; want reuses and misses", gathers, reuses)
	}
}
