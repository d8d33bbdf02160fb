package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"dualsim"
	"dualsim/internal/storage"
)

// TestAppendRowRendersTerms holds the direct rendering to the rendering
// it replaced: every value decodes to exactly Term.String(), as a JSON
// round trip hands that back (invalid bytes are U+FFFD).
func TestAppendRowRendersTerms(t *testing.T) {
	values := []string{
		"", "plain", `say "hi"`, `back\slash`, "line\nbreak", "tab\there", "cr\rhere",
		"ctl\x01\x1f", "ünï — 日本 😀", `<&>`, " ", "bad\xff", "cut\xe2\x80", "\xe2\x80\"", `\"`, `\\n`,
	}
	var triples []dualsim.Triple
	for i, v := range values {
		triples = append(triples, dualsim.TL(fmt.Sprintf("s%d", i), "lit", v), dualsim.T("iri:"+v, "iri", "o"))
	}
	st, err := dualsim.FromTriples(triples)
	if err != nil {
		t.Fatal(err)
	}
	row := []storage.NodeID{dualsim.Unbound}
	for id := 0; id < st.NumNodes(); id++ {
		row = append(row, storage.NodeID(id))
	}
	var got []*string
	if err := json.Unmarshal(appendRow(nil, st, row), &got); err != nil {
		t.Fatalf("appendRow wrote %q: %v", appendRow(nil, st, row), err)
	}
	if len(got) != len(row) || got[0] != nil {
		t.Fatalf("%d values (first %v), want %d with a leading null", len(got), got[0], len(row))
	}
	for i, id := range row[1:] {
		if want := string([]rune(st.Term(id).String())); got[i+1] == nil || *got[i+1] != want {
			t.Errorf("term %d decodes to %v, want %q", id, got[i+1], want)
		}
	}
}

// discard is a ResponseWriter that drops the body.
type discard struct{ h http.Header }

func (d discard) Header() http.Header         { return d.h }
func (d discard) Write(p []byte) (int, error) { return len(p), nil }
func (discard) WriteHeader(int)               {}

// TestStreamAllocsPerRow guards the streamed row path: rows go from the
// session cursor through the NDJSON encoder without per-row garbage.
func TestStreamAllocsPerRow(t *testing.T) {
	const rows = 10_000
	var triples []dualsim.Triple
	for i := 0; i < rows; i++ {
		s := fmt.Sprintf("http://example.org/subject/%d", i)
		triples = append(triples,
			dualsim.T(s, "p", fmt.Sprintf("http://example.org/object/%d", i%97)),
			dualsim.TL(s, "q", fmt.Sprintf("label %d", i)))
	}
	st, err := dualsim.FromTriples(triples)
	if err != nil {
		t.Fatal(err)
	}
	db, err := dualsim.Open(st)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv, err := New(db)
	if err != nil {
		t.Fatal(err)
	}

	// The cursors are opened ahead of the measurement: planning and
	// pruning are per query, the guard is about what a row costs.
	const runs = 5
	var cursors []Cursor
	for i := 0; i <= runs; i++ {
		cur, err := srv.be.Query(context.Background(), `SELECT * WHERE { ?s <p> ?o . ?s <q> ?l . }`)
		if err != nil {
			t.Fatal(err)
		}
		defer cur.Close()
		cursors = append(cursors, cur)
	}
	streamed := 0
	perRun := testing.AllocsPerRun(runs, func() {
		cur := cursors[0]
		cursors = cursors[1:]
		enc := &ndjsonEncoder{w: discard{http.Header{}}}
		if err := enc.begin(cur.Vars(), cur.Epoch()); err != nil {
			t.Fatal(err)
		}
		n, _, err := pump(cur, 0, enc.row)
		if err != nil || cur.Err() != nil {
			t.Fatal(err, cur.Err())
		}
		cur.Close()
		enc.end(cur.Stats(), n, false)
		streamed = n
	})
	if streamed != rows || len(cursors) != 0 {
		t.Fatalf("streamed %d rows (%d cursors left), want %d", streamed, len(cursors), rows)
	}
	t.Logf("%.0f allocations per %d-row response", perRun, rows)
	if perRow := perRun / rows; perRow >= 0.05 {
		t.Errorf("streaming costs %.4f allocations per row (%.0f per %d-row response), want < 0.05", perRow, perRun, rows)
	}
}
