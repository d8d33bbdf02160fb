package client

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dualsim"
	"dualsim/internal/queries"
	"dualsim/internal/server"
	"dualsim/internal/wire"
)

// serveBody answers every request with one canned NDJSON body.
func serveBody(t *testing.T, body []byte) *Client {
	t.Helper()
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", wire.ContentTypeNDJSON)
		w.Write(body)
	}))
	t.Cleanup(fake.Close)
	c, err := New(fake.URL, WithRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func drain(t *testing.T, st *Stream) []Row {
	t.Helper()
	defer st.Close()
	var rows []Row
	for st.Next() {
		rows = append(rows, st.Row())
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestStreamDrainedReleasesConnection: a stream read to its trailer has
// given its connection back — QueryStream promises reuse, and a body
// closed short of EOF makes net/http drop the connection instead.
func TestStreamDrainedReleasesConnection(t *testing.T) {
	st, err := dualsim.FromTriples(queries.Fig1aTriples())
	if err != nil {
		t.Fatal(err)
	}
	db, err := dualsim.Open(st)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv, err := server.New(db)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewUnstartedServer(srv)
	var conns atomic.Int64
	hs.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	hs.Start()
	defer hs.Close()
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	c, err := New(hs.URL, WithHTTPClient(hc), WithRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		st, err := c.QueryStream(context.Background(), queryX1)
		if err != nil {
			t.Fatal(err)
		}
		if rows := drain(t, st); len(rows) != 2 {
			t.Fatalf("stream %d: %d rows", i, len(rows))
		}
	}
	if got := conns.Load(); got != 1 {
		t.Errorf("200 drained streams used %d connections, want 1", got)
	}
}

// TestStreamEarlyCloseAborts: Close before the trailer still tears the
// request down — the server sees its context cancelled instead of
// streaming into a reader that left.
func TestStreamEarlyCloseAborts(t *testing.T) {
	aborted := make(chan struct{})
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", wire.ContentTypeNDJSON)
		io.WriteString(w, `{"kind":"header","vars":["x"],"epoch":0}`+"\n")
		for r.Context().Err() == nil {
			io.WriteString(w, `{"kind":"row","epoch":0,"values":["<a>"]}`+"\n")
			w.(http.Flusher).Flush()
		}
		close(aborted)
	}))
	defer fake.Close()
	c, err := New(fake.URL, WithRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.QueryStream(context.Background(), queryX1)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Next() {
		t.Fatalf("first row missing: %v", st.Err())
	}
	st.Close()
	select {
	case <-aborted:
	case <-time.After(5 * time.Second):
		t.Fatal("the server kept streaming after an early Close")
	}
}

// recordedStream is what a server before the row codec wrote —
// encoding/json over a reflected Event, so '<', '>' and '&' arrive as
// \u003c, \u003e and \u0026 — plus a row whose keys come in another
// order.
const recordedStream = `{"kind":"header","vars":["s","o","x"],"epoch":4}
{"kind":"row","epoch":4,"values":["\u003chttp://example.org/s?a=1\u0026b=2\u003e","\"say \\\"hi\\\"\\n\"",null]}
{"kind":"row","epoch":4,"values":["\u003cs2\u003e","\"\u00fc \ud83d\ude00 \u2028\"","\u003cx\u003e"]}
{"values":["\u003cs3\u003e",null,null],"epoch":4,"kind":"row"}
{"kind":"stats","epoch":4,"stats":{"epoch":4},"rows":3}
`

// TestStreamReadsEncodingJSONServer replays recordedStream, and a
// zero-width row with no "values" at all, as encoding/json wrote it.
func TestStreamReadsEncodingJSONServer(t *testing.T) {
	st, err := serveBody(t, []byte(recordedStream)).QueryStream(context.Background(), queryX1)
	if err != nil {
		t.Fatal(err)
	}
	rows := drain(t, st)
	want := [][]string{
		{"<http://example.org/s?a=1&b=2>", `"say \"hi\"\n"`, "∅"},
		{"<s2>", "\"ü 😀 \u2028\"", "<x>"},
		{"<s3>", "∅", "∅"},
	}
	if len(rows) != len(want) || st.Rows() != 3 || st.Epoch() != 4 {
		t.Fatalf("%d rows, trailer %d, epoch %d", len(rows), st.Rows(), st.Epoch())
	}
	for i, row := range rows {
		for j, v := range row {
			got := "∅"
			if v != nil {
				got = *v
			}
			if got != want[i][j] {
				t.Errorf("row %d value %d = %q, want %q", i, j, got, want[i][j])
			}
		}
	}

	zero := `{"kind":"header","epoch":0}` + "\n" + `{"kind":"row","epoch":0}` + "\n" + `{"kind":"stats","epoch":0,"rows":1}` + "\n"
	if st, err = serveBody(t, []byte(zero)).QueryStream(context.Background(), queryX1); err != nil {
		t.Fatal(err)
	}
	if rows := drain(t, st); len(rows) != 1 || len(rows[0]) != 0 {
		t.Fatalf("zero-width row: %v", rows)
	}
}

// TestStreamNextCells: the cells-only advance reads the same recorded
// encoding/json stream as Next, through the same trailer handling, and
// hands every value over in its canonical spelling — whatever escapes
// the line used and whatever order its keys came in.
func TestStreamNextCells(t *testing.T) {
	st, err := serveBody(t, []byte(recordedStream)).QueryStream(context.Background(), queryX1)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var rows []string
	for st.NextCells() {
		rows = append(rows, string(bytes.Join(st.Cells(), []byte{','})))
		if st.Row() != nil {
			t.Fatal("NextCells decoded the row")
		}
	}
	if err := st.Err(); err != nil || st.Rows() != 3 {
		t.Fatalf("%v, trailer %d", err, st.Rows())
	}
	want := []string{
		`"<http://example.org/s?a=1&b=2>","\"say \\\"hi\\\"\\n\"",null`,
		"\"<s2>\",\"\\\"ü 😀 \u2028\\\"\",\"<x>\"",
		`"<s3>",null,null`,
	}
	if strings.Join(rows, "\n") != strings.Join(want, "\n") {
		t.Fatalf("cells:\n%s\nwant\n%s", strings.Join(rows, "\n"), strings.Join(want, "\n"))
	}
}

// rowsBody is a well-formed stream of n rows with the given values,
// each line built from the values' cells.
func rowsBody(n int, values ...string) []byte {
	cells := make([][]byte, len(values))
	for i, v := range values {
		cells[i] = wire.AppendCell(nil, v)
	}
	line := append([]byte(`{"kind":"row","epoch":0,"values":[`), bytes.Join(cells, []byte{','})...)
	line = append(line, "]}\n"...)
	body := []byte(`{"kind":"header","vars":["a","b","c"],"epoch":0}` + "\n")
	for i := 0; i < n; i++ {
		body = append(body, line...)
	}
	return append(body, fmt.Sprintf(`{"kind":"stats","epoch":0,"rows":%d}`+"\n", n)...)
}

// TestStreamLargeRow: the line buffer starts small and still grows to
// take a row far beyond it.
func TestStreamLargeRow(t *testing.T) {
	big := "<" + strings.Repeat("x", 1<<20) + ">"
	st, err := serveBody(t, rowsBody(1, "<a>", big, `"l"`)).QueryStream(context.Background(), queryX1)
	if err != nil {
		t.Fatal(err)
	}
	if rows := drain(t, st); len(rows) != 1 || *rows[0][1] != big {
		t.Fatalf("%d rows; the 1 MB value did not survive", len(rows))
	}
}

// TestStreamDecodeAllocsPerRow guards the client's row path: rows are
// carved from per-stream chunks, so a row costs a share of a chunk, not
// allocations of its own and not a reflected event.
func TestStreamDecodeAllocsPerRow(t *testing.T) {
	const rows = 10_000
	c := serveBody(t, rowsBody(rows, "<http://example.org/subject/1234>", "<http://example.org/object/56>", `"label 1234"`))
	ctx := context.Background()
	perRun := testing.AllocsPerRun(5, func() {
		st, err := c.QueryStream(ctx, queryX1)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for st.Next() {
			n++
		}
		if st.Err() != nil || n != rows {
			t.Fatalf("%d rows, %v", n, st.Err())
		}
		st.Close()
	})
	t.Logf("%.0f allocations per %d-row stream", perRun, rows)
	if perRow := perRun / rows; perRow > 0.1 {
		t.Errorf("decoding costs %.2f allocations per row, want <= 0.1", perRow)
	}
}
