package storage_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"dualsim/internal/engine"
	"dualsim/internal/proptest"
	"dualsim/internal/rdf"
	"dualsim/internal/sparql"
	"dualsim/internal/storage"
)

// slice encodes the named predicates of st as a snapshot body and
// decodes it, the way a gather receives one shard's export.
func slice(t *testing.T, st *storage.Store, preds []string) *storage.Store {
	t.Helper()
	var ids []storage.PredID
	for _, p := range preds {
		if id, ok := st.PredIDOf(p); ok {
			ids = append(ids, id)
		}
	}
	var buf bytes.Buffer
	if err := st.EncodeSlice(&buf, ids); err != nil {
		t.Fatal(err)
	}
	out, err := storage.DecodeSnapshot(buf.Bytes())
	if err != nil {
		t.Fatalf("decoding the slice of %v: %v", preds, err)
	}
	return out
}

// rows evaluates src over st and renders the answer as sorted lines of
// decoded terms, columns in variable-name order — comparable across
// stores whose ids differ.
func rows(t *testing.T, st *storage.Store, src string) []string {
	t.Helper()
	q, err := sparql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.NewVolcano().Evaluate(context.Background(), st, q)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	vars := slices.Clone(res.Vars)
	sort.Strings(vars)
	res = res.Project(vars)
	out := make([]string, res.Len())
	for i, row := range res.Rows {
		cells := make([]string, len(row))
		for j, v := range row {
			if v != engine.Unbound {
				cells[j] = st.Term(v).String()
			}
		}
		out[i] = strings.Join(cells, "\t")
	}
	sort.Strings(out)
	return out
}

// TestPropertyUnionOfSlices: on random stores split into random
// predicate partitions, the Union of the per-part slices holds exactly
// the original triples of those predicates and exactly the terms they
// use, passes the index invariants, and answers every query like
// FromTriples of the same triples.
func TestPropertyUnionOfSlices(t *testing.T) {
	proptest.Check(t, func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		preds := []string{"p0", "p1", "p2", "p3", "p4"}
		var ts []rdf.Triple
		for i, n := 0, 1+r.Intn(200); i < n; i++ {
			s, p := fmt.Sprintf("n%d", r.Intn(30)), preds[r.Intn(len(preds))]
			if r.Intn(4) == 0 {
				ts = append(ts, rdf.TL(s, p, fmt.Sprintf("n%d", r.Intn(30)))) // same text, literal universe
			} else {
				ts = append(ts, rdf.T(s, p, fmt.Sprintf("n%d", r.Intn(30))))
			}
		}
		full, err := storage.FromTriples(ts)
		if err != nil {
			t.Fatal(err)
		}
		// Each predicate (and one the store lacks) goes to one of up to
		// three parts or to none; a part may list a predicate twice.
		parts := make([][]string, 1+r.Intn(3))
		chosen := map[string]bool{}
		for _, p := range append(preds, "absent") {
			if k := r.Intn(len(parts) + 1); k < len(parts) {
				parts[k] = append(parts[k], p)
				chosen[p] = true
				if r.Intn(5) == 0 {
					parts[k] = append(parts[k], p)
				}
			}
		}
		cuts := make([]*storage.Store, len(parts))
		for k, ps := range parts {
			cuts[k] = slice(t, full, ps)
		}
		u, err := storage.Union(cuts...)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := storage.IndexInvariants(u); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		var want []rdf.Triple
		used := map[rdf.Term]bool{}
		for _, tr := range full.Triples() {
			if chosen[tr.P] {
				want = append(want, tr)
				used[tr.S], used[tr.O] = true, true
			}
		}
		got := map[rdf.Triple]bool{}
		for _, tr := range u.Triples() {
			got[tr] = true
		}
		if len(got) != len(want) || u.NumTriples() != len(want) {
			t.Fatalf("seed %d: union has %d triples, the partition %d", seed, u.NumTriples(), len(want))
		}
		for _, tr := range want {
			if !got[tr] {
				t.Fatalf("seed %d: union lost %s", seed, tr)
			}
		}
		if u.NumNodes() != len(used) {
			t.Fatalf("seed %d: union has %d terms, its triples use %d", seed, u.NumNodes(), len(used))
		}

		ref, err := storage.FromTriples(want)
		if err != nil {
			t.Fatal(err)
		}
		pick := func() string { return preds[r.Intn(len(preds))] }
		for _, src := range []string{
			fmt.Sprintf(`SELECT * WHERE { ?x <%s> ?y . }`, pick()),
			fmt.Sprintf(`SELECT * WHERE { ?x <%s> ?y . ?y <%s> ?z . }`, pick(), pick()),
			fmt.Sprintf(`SELECT * WHERE { ?x <%s> ?y . ?x <%s> <n%d> . }`, pick(), pick(), r.Intn(30)),
			fmt.Sprintf(`SELECT * WHERE { ?x <%s> ?y . OPTIONAL { ?y <%s> ?z . } }`, pick(), pick()),
			fmt.Sprintf(`SELECT * WHERE { { ?x <%s> ?y . } UNION { ?y <%s> ?x . ?x <%s> ?x . } }`, pick(), pick(), pick()),
		} {
			if g, w := rows(t, u, src), rows(t, ref, src); !slices.Equal(g, w) {
				t.Fatalf("seed %d: %s\n union %q\n ref   %q", seed, src, g, w)
			}
		}
		return true
	}, 60, nil)
}

// TestUnionRejectsSharedPredicate: two parts holding one predicate is a
// placement bug the caller must hear about, not a silent overwrite.
func TestUnionRejectsSharedPredicate(t *testing.T) {
	a, err := storage.FromTriples([]rdf.Triple{rdf.T("a", "p", "b"), rdf.T("a", "q", "c")})
	if err != nil {
		t.Fatal(err)
	}
	b, err := storage.FromTriples([]rdf.Triple{rdf.T("x", "r", "y"), rdf.T("x", "p", "z")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := storage.Union(a, b); err == nil || !strings.Contains(err.Error(), `"p"`) {
		t.Fatalf("union over a shared predicate: err %v, want one naming p", err)
	}
	if _, err := storage.Union(a, a); err == nil {
		t.Fatal("union of a store with itself succeeded")
	}
	// The first part is unchanged by the failed union.
	if a.NumTriples() != 2 || a.NumNodes() != 3 || a.NumPreds() != 2 {
		t.Fatalf("first part changed shape: %d triples, %d nodes, %d preds", a.NumTriples(), a.NumNodes(), a.NumPreds())
	}
}

// TestUnionLeavesItsParts: a part united once can be united again with
// other parts, and each union holds exactly the terms its triples use,
// as a union of fresh parts does — Union writes into no part.
func TestUnionLeavesItsParts(t *testing.T) {
	mk := func(ts ...rdf.Triple) *storage.Store {
		st, err := storage.FromTriples(ts)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a := mk(rdf.T("a", "p", "b"), rdf.T("b", "p", "c"))
	b := mk(rdf.T("c", "q", "d"), rdf.T("x", "q", "y"))
	b2 := mk(rdf.T("c", "q", "e"))
	u1, err := storage.Union(a, b)
	if err != nil {
		t.Fatal(err)
	}
	u2, err := storage.Union(a, b2)
	if err != nil {
		t.Fatal(err)
	}
	u3, err := storage.Union(b2, a)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		st    *storage.Store
		nodes int
		want  []rdf.Triple
	}{
		{"a", a, 3, []rdf.Triple{rdf.T("a", "p", "b"), rdf.T("b", "p", "c")}},
		{"b2", b2, 2, []rdf.Triple{rdf.T("c", "q", "e")}},
		{"a+b", u1, 6, []rdf.Triple{rdf.T("a", "p", "b"), rdf.T("b", "p", "c"), rdf.T("c", "q", "d"), rdf.T("x", "q", "y")}},
		{"a+b2", u2, 4, []rdf.Triple{rdf.T("a", "p", "b"), rdf.T("b", "p", "c"), rdf.T("c", "q", "e")}},
		{"b2+a", u3, 4, []rdf.Triple{rdf.T("a", "p", "b"), rdf.T("b", "p", "c"), rdf.T("c", "q", "e")}},
	} {
		got := c.st.Triples()
		sortTriples(got)
		sortTriples(c.want)
		if c.st.NumNodes() != c.nodes || !slices.Equal(got, c.want) {
			t.Errorf("%s: %d terms, triples %v; want %d terms, %v", c.name, c.st.NumNodes(), got, c.nodes, c.want)
		}
		if err := storage.IndexInvariants(c.st); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

func sortTriples(ts []rdf.Triple) {
	slices.SortFunc(ts, func(x, y rdf.Triple) int { return strings.Compare(x.String(), y.String()) })
}
