package wire

import (
	"bytes"
	"encoding/json"
	"testing"
)

// asJSONReads is s as encoding/json hands it back after a round trip:
// every invalid byte is one U+FFFD.
func asJSONReads(s string) string { return string([]rune(s)) }

func sameValues(t *testing.T, what string, got, want []*string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		switch {
		case (got[i] == nil) != (want[i] == nil):
			t.Fatalf("%s: value %d: null on one side only", what, i)
		case got[i] != nil && *got[i] != *want[i]:
			t.Fatalf("%s: value %d = %q, want %q", what, i, *got[i], *want[i])
		}
	}
}

// decode is the reader's whole decode of one line: Split, then Decode.
func decode(line []byte) (uint64, [][]byte, []*string, bool) {
	var r RowReader
	epoch, cells, ok := r.Split(line)
	if !ok {
		return 0, nil, nil, false
	}
	return epoch, cells, r.Decode(cells), true
}

// cellOf is the canonical cell of a decoded value.
func cellOf(v *string) string {
	if v == nil {
		return "null"
	}
	return string(AppendCell(nil, *v))
}

// checkDecode holds the reader to its contract on one arbitrary line:
// it may decline, but what it accepts json.Unmarshal reads the same way,
// and every cell it cuts is the canonical cell of its value.
func checkDecode(t *testing.T, line []byte) {
	t.Helper()
	epoch, cells, values, ok := decode(line)
	if !ok {
		return
	}
	var ev Event
	if err := json.Unmarshal(line, &ev); err != nil {
		t.Fatalf("reader accepted %q, json.Unmarshal rejects it: %v", line, err)
	}
	if ev.Kind != EventRow || ev.Epoch != epoch {
		t.Fatalf("%q: reader says row at epoch %d, json.Unmarshal %q at %d", line, epoch, ev.Kind, ev.Epoch)
	}
	sameValues(t, "reader vs json.Unmarshal", values, ev.Values)
	for i, c := range cells {
		if want := cellOf(values[i]); string(c) != want {
			t.Fatalf("%q: cell %d = %q, want the canonical %q", line, i, c, want)
		}
	}
}

// cellRow renders a row from its canonical cells, the way a server
// forwarding cells does.
type cellRow []string

func (r cellRow) AppendRow(dst []byte) []byte {
	dst = append(dst, '[')
	for i, c := range r {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, c...)
	}
	return append(dst, ']')
}

// checkEncode holds the encoder to its contract on one row: the line is
// a JSON document any client reads back to the same values, and the
// reader claims it and cuts it back into the very cells it was built of.
func checkEncode(t *testing.T, epoch uint64, row []*string) {
	t.Helper()
	want := make([]*string, len(row))
	cells := make(cellRow, len(row))
	for i, v := range row {
		cells[i] = cellOf(v)
		if v != nil {
			s := asJSONReads(*v)
			want[i] = &s
		}
	}
	line := AppendRowEvent(nil, epoch, cells)
	var ev Event
	if err := json.Unmarshal(line, &ev); err != nil {
		t.Fatalf("encoder wrote %q: %v", line, err)
	}
	if ev.Kind != EventRow || ev.Epoch != epoch {
		t.Fatalf("%q reads back as %q at epoch %d", line, ev.Kind, ev.Epoch)
	}
	sameValues(t, "json.Unmarshal of the encoder's line", ev.Values, want)
	gotEpoch, gotCells, got, ok := decode(line)
	if !ok || gotEpoch != epoch {
		t.Fatalf("reader declines the encoder's own line %q (ok %v, epoch %d)", line, ok, gotEpoch)
	}
	sameValues(t, "reader on the encoder's line", got, want)
	for i, c := range gotCells {
		if string(c) != cells[i] {
			t.Fatalf("%q: cell %d split as %q, written as %q", line, i, c, cells[i])
		}
	}
}

// rowOf cuts arbitrary bytes into a row: comma-separated values, the
// word null for unbound.
func rowOf(data []byte) []*string {
	var row []*string
	for _, f := range bytes.Split(data, []byte{','}) {
		if bytes.Equal(f, null) {
			row = append(row, nil)
			continue
		}
		s := string(f)
		row = append(row, &s)
	}
	return row
}

// codecSeeds are the fuzz corpus; mine says whether the decoder claims
// the line (what it declines goes to json.Unmarshal).
var codecSeeds = []struct {
	line string
	mine bool
}{
	// What the encoding/json server before this codec wrote: reflected
	// Event, HTML-escaped; a zero-width row dropped "values" altogether.
	{`{"kind":"row","epoch":7,"values":["\u003chttp://example.org/a\u003e","\"lit \\\"q\\\" \u0026 \\n\"",null]}`, true},
	{`{"kind":"row","epoch":7}`, false},
	// Surrogates: a pair, a lone high half, a lone low half, high + junk.
	{`{"kind":"row","epoch":0,"values":["\ud83d\ude00","\ud83d","\ude00","\ud83dx","\ud83d\u0041"]}`, true},
	// Invalid UTF-8, raw and beside valid multi-byte text; U+2028 raw and escaped.
	{"{\"kind\":\"row\",\"epoch\":1,\"values\":[\"\xff\xfe\",\"é\xe2\x80\",\"\u2028\\u2028\"]}", true},
	// Every short escape, a control byte as \u00XX, an escaped slash.
	{`{"kind":"row","epoch":1,"values":["\b\f\n\r\t\/\\\"\u0001"]}`, true},
	// Escapes that need not be: a letter, upper-case hex, a control byte
	// with a short form; beside cells already canonical.
	{`{"kind":"row","epoch":2,"values":["<a>","\u0041\u001F\u000a",null,"\u0008é"]}`, true},
	// Zero-width and all-null rows, the largest epoch.
	{`{"kind":"row","epoch":18446744073709551615,"values":[]}`, true},
	{`{"kind":"row","epoch":3,"values":[null,null,null]}`, true},
	// Not the canonical shape: reordered keys, interior whitespace,
	// truncated, trailing comma, raw control byte, leading-zero and
	// overflowing epochs, a non-string value, trailing bytes.
	{`{"epoch":7,"kind":"row","values":["<a>"]}`, false},
	{`{"kind":"row", "epoch":7,"values":["<a>"]}`, false},
	{`{"kind":"row","epoch":7,"values":["<a>",nul`, false},
	{`{"kind":"row","epoch":7,"values":["<a>",]}`, false},
	{"{\"kind\":\"row\",\"epoch\":7,\"values\":[\"a\tb\"]}", false},
	{`{"kind":"row","epoch":07,"values":[]}`, false},
	{`{"kind":"row","epoch":18446744073709551616,"values":[]}`, false},
	{`{"kind":"row","epoch":7,"values":[1]}`, false},
	{`{"kind":"row","epoch":7,"values":[]}}`, false},
	// The other events, and a line that is only interesting as a row.
	{`{"kind":"header","vars":["a"],"epoch":3}`, false},
	{`{"kind":"error","epoch":3,"error":"boom"}`, false},
	{"<a>,null,\"q\"\\,\x00\x1f\x7f,\xc3", false},
}

func FuzzRowCodec(f *testing.F) {
	for _, s := range codecSeeds {
		f.Add([]byte(s.line), uint64(len(s.line)))
		f.Add([]byte(s.line+"\n"), uint64(1)<<63)
	}
	// What encoding/json writes today, HTML escapes and all.
	vals := []string{"<http://example.org/s?a=1&b=2>", "\"q \\\"\" \u2028\u2029 \x01\x1f é 😀"}
	line, err := json.Marshal(Event{Kind: EventRow, Epoch: 5, Values: []*string{&vals[0], nil, &vals[1]}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(line, uint64(5))
	f.Fuzz(func(t *testing.T, data []byte, epoch uint64) {
		checkDecode(t, data)
		checkEncode(t, epoch, rowOf(data))
	})
}

// TestRowCodecShape pins what the fuzz properties leave open: which of
// the seed lines the reader claims, the exact bytes of a line, and which
// cells Split keeps as the line spells them.
func TestRowCodecShape(t *testing.T) {
	line := AppendRowEvent(nil, 42, cellRow{`"<http://example.org/a&b>"`, "null", `"\"x\\\"y\"\n\u0001` + "\u2028é" + `"`})
	want := `{"kind":"row","epoch":42,"values":["<http://example.org/a&b>",null,"\"x\\\"y\"\n\u0001` + "\u2028é" + `"]}` + "\n"
	if string(line) != want {
		t.Errorf("line = %q\nwant   %q", line, want)
	}
	for _, s := range codecSeeds {
		if _, _, _, ok := decode([]byte(s.line)); ok != s.mine {
			t.Errorf("reader on %q: ok = %v, want %v", s.line, ok, s.mine)
		}
	}
	_, _, values, _ := decode([]byte(codecSeeds[2].line))
	for i, want := range []string{"😀", "\ufffd", "\ufffd", "\ufffdx", "\ufffdA"} {
		if *values[i] != want {
			t.Errorf("surrogate case %d = %q, want %q", i, *values[i], want)
		}
	}

	for _, tc := range []struct {
		cell, want string // want "" means: kept as spelled
	}{
		{`"<a&b> é ` + "\u2028" + `"`, ""},
		{`"\"\\\n\r\t"`, ""},
		{`"\u0001\u001f"`, `"\u0001\u001f"`}, // canonical, but copied
		{`"\u003ca\u003e \u0026"`, `"<a> &"`},
		{`"\/\b\f"`, `"/\u0008\u000c"`},
		{`"\u000a\u0009\u000D\u001F\u0041\u00e9"`, `"\n\t\r\u001fAé"`},
		{`"\ud83d\ude00 \ud83d"`, "\"😀 \ufffd\""},
		{"\"a\xffb\"", "\"a\ufffdb\""},
	} {
		line := []byte(`{"kind":"row","epoch":1,"values":[null,` + tc.cell + `]}`)
		var r RowReader
		_, cells, ok := r.Split(line)
		if !ok || len(cells) != 2 || string(cells[0]) != "null" {
			t.Fatalf("Split(%q) = %q, %v", line, cells, ok)
		}
		want, aliased := tc.want, &cells[1][0] == &line[len(`{"kind":"row","epoch":1,"values":[null,`)]
		if want == "" {
			want = tc.cell
		}
		if string(cells[1]) != want || aliased != (tc.want == "") {
			t.Errorf("cell %s split as %s (aliasing the line: %v), want %s", tc.cell, cells[1], aliased, want)
		}
	}
}

// TestDecodeSlab: decoded values are carved from chunks, so a row stays
// valid while later rows are decoded, and a long stream costs a few
// dozen allocations, not a few per row.
func TestDecodeSlab(t *testing.T) {
	line := []byte(`{"kind":"row","epoch":1,"values":["<http://example.org/s>",null,"\"lit\\n\""]}`)
	var r RowReader
	_, cells, _ := r.Split(line)
	first := r.Decode(cells)
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 1000; i++ {
			_, cells, _ := r.Split(line)
			r.Decode(cells)
		}
	})
	if *first[0] != "<http://example.org/s>" || first[1] != nil || *first[2] != `"lit\n"` {
		t.Fatalf("the first row changed under later decodes: %q %v %q", *first[0], first[1], *first[2])
	}
	if allocs > 10 {
		t.Errorf("%.0f allocations per 1000 rows, want <= 10", allocs)
	}
}
