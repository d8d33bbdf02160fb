package client

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
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
		rows = append(rows, slices.Clone(st.Row()))
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
			io.WriteString(w, `"<a>"`+"\n[0]\n")
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

// recordedStream is a stream as an encoding/json writer spells it: the
// term lines are reflected strings, so '<', '>' and '&' arrive as
// \u003c, \u003e and \u0026, and other escapes differ from the codec's.
const recordedStream = `{"kind":"header","vars":["s","o","x"],"epoch":4}
"\u003chttp://example.org/s?a=1\u0026b=2\u003e"
"\"say \\\"hi\\\"\\n\""
[0,1,null]
"\u003cs2\u003e"
"\"\u00fc \ud83d\ude00 \u2028\""
"\u003cx\u003e"
[2,3,4]
"\u003cs3\u003e"
[5,null,null]
{"kind":"stats","epoch":4,"stats":{"epoch":4},"rows":3}
`

// TestStreamReadsEncodingJSONServer replays recordedStream, and a
// zero-width row, as encoding/json wrote them.
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

	zero := `{"kind":"header","epoch":0}` + "\n[]\n" + `{"kind":"stats","epoch":0,"rows":1}` + "\n"
	if st, err = serveBody(t, []byte(zero)).QueryStream(context.Background(), queryX1); err != nil {
		t.Fatal(err)
	}
	if rows := drain(t, st); len(rows) != 1 || len(rows[0]) != 0 {
		t.Fatalf("zero-width row: %v", rows)
	}
}

// cellRows reads st to its end line by line (NextLine), as a
// forwarding reader does, through a term table that keeps cells: each
// row is its values' cells, or null, joined by commas.
func cellRows(t *testing.T, st *Stream) []string {
	t.Helper()
	var tab wire.TermTable
	var rows []string
	for {
		line, ok := st.NextLine()
		if !ok {
			return rows
		}
		kind, err := tab.Read(line, len(st.Vars()), false)
		if err != nil {
			t.Fatal(err)
		}
		if kind != wire.LineRow {
			continue
		}
		var cells []string
		for _, k := range tab.Refs() {
			cell := "null"
			if k >= 0 {
				cell = tab.Cell(k)
			}
			cells = append(cells, cell)
		}
		rows = append(rows, strings.Join(cells, ","))
		if st.Row() != nil {
			t.Fatal("NextLine decoded the row")
		}
	}
}

// TestStreamNextLine: the line-by-line advance reads the same recorded
// encoding/json stream as Next, through the same trailer handling, and
// hands every term and row line over as it came, so a table reading
// them for cells sees every value in its canonical spelling, whatever
// escapes its term line used.
func TestStreamNextLine(t *testing.T) {
	st, err := serveBody(t, []byte(recordedStream)).QueryStream(context.Background(), queryX1)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rows := cellRows(t, st)
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

// TestStreamTermDefinedTwice: a writer that defines a value again under
// a new number (an encoding/json writer, dualsimd past its memo's cap,
// or a router relaying two branches) is read as it meant: rows naming
// either number read the same value, and the same cell.
func TestStreamTermDefinedTwice(t *testing.T) {
	body := `{"kind":"header","vars":["a","b"],"epoch":0}
"<a>"
"\u003ca\u003e"
[0,1]
[1,0]
{"kind":"stats","epoch":0,"rows":2}
`
	c := serveBody(t, []byte(body))
	st, err := c.QueryStream(context.Background(), queryX1)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	n := 0
	for ; st.Next(); n++ {
		if row := st.Row(); *row[0] != "<a>" || *row[1] != "<a>" {
			t.Fatalf("row %d = %q %q", n, *row[0], *row[1])
		}
	}
	if err := st.Err(); err != nil || n != 2 {
		t.Fatalf("%d rows: %v", n, err)
	}
	st, err = c.QueryStream(context.Background(), queryX1)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if rows := cellRows(t, st); strings.Join(rows, " ") != `"<a>","<a>" "<a>","<a>"` || st.Err() != nil {
		t.Fatalf("cells %q: %v", rows, st.Err())
	}
}

// TestStreamDetectsEpochTear: every row of a stream answers from the
// header's epoch, and the stats trailer repeats it; a trailer at
// another epoch makes Err name the tear, a matching one leaves Err nil.
func TestStreamDetectsEpochTear(t *testing.T) {
	for _, tc := range []struct {
		trailer uint64
		want    string // a fragment of Err, "" for nil
	}{
		{4, "epoch tear: header 3, stats 4"},
		{3, ""},
	} {
		body := fmt.Sprintf(`{"kind":"header","vars":["a"],"epoch":3}
"<a>"
[0]
{"kind":"stats","epoch":%d,"stats":{"epoch":%d},"rows":1}
`, tc.trailer, tc.trailer)
		st, err := serveBody(t, []byte(body)).QueryStream(context.Background(), queryX1)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for ; st.Next(); n++ {
		}
		err = st.Err()
		st.Close()
		if n != 1 {
			t.Errorf("trailer at epoch %d: %d rows, want 1", tc.trailer, n)
		}
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("trailer at epoch %d: Err = %v, want %q", tc.trailer, err, tc.want)
		}
	}
}

// TestStreamUndefinedTerm: a row naming a term the stream has not
// defined is an error that says so, not a panic or a made-up value.
func TestStreamUndefinedTerm(t *testing.T) {
	body := `{"kind":"header","vars":["a"],"epoch":0}
"<a>"
[0]
[1]
"<b>"
{"kind":"stats","epoch":0,"rows":2}
`
	st, err := serveBody(t, []byte(body)).QueryStream(context.Background(), queryX1)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	n := 0
	for st.Next() {
		n++
	}
	if err := st.Err(); n != 1 || err == nil || !strings.Contains(err.Error(), "names term 1, but the stream has defined 1") {
		t.Fatalf("%d rows, err %v; want 1 row, then the undefined term named", n, err)
	}
}

// rowsBody is a well-formed stream of n rows of three values: row i
// binds value(i, j) in column j, each value defined as a term line
// before its first row.
func rowsBody(n int, value func(i, j int) string) []byte {
	body := []byte(`{"kind":"header","vars":["a","b","c"],"epoch":0}` + "\n")
	terms := map[string]int{}
	for i := 0; i < n; i++ {
		refs := make([]string, 3)
		for j := range refs {
			v := value(i, j)
			k, ok := terms[v]
			if !ok {
				k = len(terms)
				terms[v] = k
				body = append(wire.AppendCell(body, v), '\n')
			}
			refs[j] = strconv.Itoa(k)
		}
		body = append(body, "["+strings.Join(refs, ",")+"]\n"...)
	}
	return append(body, fmt.Sprintf(`{"kind":"stats","epoch":0,"rows":%d}`+"\n", n)...)
}

// TestStreamLargeRow: the line buffer starts small and still grows to
// take a row far beyond it.
func TestStreamLargeRow(t *testing.T) {
	big := "<" + strings.Repeat("x", 1<<20) + ">"
	st, err := serveBody(t, rowsBody(1, func(_, j int) string { return []string{"<a>", big, `"l"`}[j] })).QueryStream(context.Background(), queryX1)
	if err != nil {
		t.Fatal(err)
	}
	if rows := drain(t, st); len(rows) != 1 || *rows[0][1] != big {
		t.Fatalf("%d rows; the 1 MB value did not survive", len(rows))
	}
}

// TestStreamDecodeAllocsPerRow guards the client's row path: rows and
// terms are carved from per-stream chunks and the term table is pooled,
// so a row costs a share of a chunk, not allocations of its own and not
// a reflected event — whether most of its terms are new (a distinct
// subject and label per row) or all of them repeat.
func TestStreamDecodeAllocsPerRow(t *testing.T) {
	const rows = 10_000
	for _, tc := range []struct {
		name  string
		value func(i, j int) string
	}{
		{"new terms", func(i, j int) string {
			return []string{
				fmt.Sprintf("<http://example.org/subject/%d>", i),
				fmt.Sprintf("<http://example.org/object/%d>", i%97),
				fmt.Sprintf(`"label %d"`, i),
			}[j]
		}},
		{"repeated terms", func(_, j int) string {
			return []string{"<http://example.org/subject/1234>", "<http://example.org/object/56>", `"label 1234"`}[j]
		}},
	} {
		c := serveBody(t, rowsBody(rows, tc.value))
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
		t.Logf("%s: %.0f allocations per %d-row stream", tc.name, perRun, rows)
		if perRow := perRun / rows; perRow > 0.1 {
			t.Errorf("%s: decoding costs %.2f allocations per row, want <= 0.1", tc.name, perRow)
		}
	}
}

// TestStreamRowIsAView: Next reads each row into the same slice, so a
// Row is valid until the next Next, while its values stay valid after
// later rows and after Close; a caller keeps a row by cloning its slice.
func TestStreamRowIsAView(t *testing.T) {
	value := func(i, j int) string { return fmt.Sprintf("<r%d/c%d>", i, j) }
	st, err := serveBody(t, rowsBody(3, value)).QueryStream(context.Background(), queryX1)
	if err != nil {
		t.Fatal(err)
	}
	var kept []Row
	var first Row
	for i := 0; st.Next(); i++ {
		row := st.Row()
		if i == 0 {
			first = row
		} else if &row[0] != &first[0] {
			t.Fatalf("row %d was read into a new slice", i)
		}
		if *first[0] != value(i, 0) {
			t.Fatalf("after Next %d the first Row reads %q, want the current %q", i, *first[0], value(i, 0))
		}
		kept = append(kept, slices.Clone(row))
	}
	if err := st.Err(); err != nil || len(kept) != 3 {
		t.Fatalf("%d rows, %v", len(kept), err)
	}
	st.Close()
	for i, row := range kept {
		for j, v := range row {
			if *v != value(i, j) {
				t.Errorf("kept row %d value %d = %q after Close, want %q", i, j, *v, value(i, j))
			}
		}
	}
}

// TestStreamDecodeAllocBytesPerRow pins the bytes a streamed row costs
// when its terms repeat: the row is read into the stream's one slice,
// so a row allocates nothing of its own and the stream's fixed costs
// (request, scanner, trailer) spread over its rows. A slice carved per
// row would cost 8 bytes per column.
func TestStreamDecodeAllocBytesPerRow(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const rows, runs = 10_000, 5
	c := serveBody(t, rowsBody(rows, func(_, j int) string {
		return []string{"<http://example.org/subject/1234>", "<http://example.org/object/56>", `"label 1234"`}[j]
	}))
	read := func() {
		st, err := c.QueryStream(context.Background(), queryX1)
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
	}
	read() // the pooled term table and the connection
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range runs {
		read()
	}
	runtime.ReadMemStats(&after)
	perRow := float64(after.TotalAlloc-before.TotalAlloc) / (runs * rows)
	t.Logf("%.1f bytes allocated per row", perRow)
	if perRow > 8 {
		t.Errorf("a row of repeated terms costs %.1f bytes, want <= 8", perRow)
	}
}
