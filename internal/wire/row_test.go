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

// checkDecode holds the decoder to its contract on one arbitrary line:
// it may decline, but what it accepts json.Unmarshal reads the same way.
func checkDecode(t *testing.T, line []byte) {
	t.Helper()
	epoch, values, ok := DecodeRowEvent(line)
	if !ok {
		return
	}
	var ev Event
	if err := json.Unmarshal(line, &ev); err != nil {
		t.Fatalf("decoder accepted %q, json.Unmarshal rejects it: %v", line, err)
	}
	if ev.Kind != EventRow || ev.Epoch != epoch {
		t.Fatalf("%q: decoder says row at epoch %d, json.Unmarshal %q at %d", line, epoch, ev.Kind, ev.Epoch)
	}
	sameValues(t, "decoder vs json.Unmarshal", values, ev.Values)
}

// checkEncode holds the encoder to its contract on one row: the line is
// a JSON document any client reads back to the same values, and the
// decoder claims it.
func checkEncode(t *testing.T, epoch uint64, row []*string) {
	t.Helper()
	want := make([]*string, len(row))
	for i, v := range row {
		if v != nil {
			s := asJSONReads(*v)
			want[i] = &s
		}
	}
	line := AppendRowEvent(nil, epoch, Values(row))
	var ev Event
	if err := json.Unmarshal(line, &ev); err != nil {
		t.Fatalf("encoder wrote %q: %v", line, err)
	}
	if ev.Kind != EventRow || ev.Epoch != epoch {
		t.Fatalf("%q reads back as %q at epoch %d", line, ev.Kind, ev.Epoch)
	}
	sameValues(t, "json.Unmarshal of the encoder's line", ev.Values, want)
	gotEpoch, got, ok := DecodeRowEvent(line)
	if !ok || gotEpoch != epoch {
		t.Fatalf("decoder declines the encoder's own line %q (ok %v, epoch %d)", line, ok, gotEpoch)
	}
	sameValues(t, "decoder on the encoder's line", got, want)
}

// rowOf cuts arbitrary bytes into a row: comma-separated values, the
// word null for unbound.
func rowOf(data []byte) []*string {
	var row []*string
	for _, f := range bytes.Split(data, comma) {
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
	f.Fuzz(func(t *testing.T, data []byte, epoch uint64) {
		checkDecode(t, data)
		checkEncode(t, epoch, rowOf(data))
	})
}

// TestRowCodecShape pins what the fuzz properties leave open: which of
// the seed lines the decoder claims, and the exact bytes of a line.
func TestRowCodecShape(t *testing.T) {
	iri, lit := "<http://example.org/a&b>", "\"x\\\"y\"\n\x01\u2028é"
	line := AppendRowEvent(nil, 42, Values{&iri, nil, &lit})
	want := `{"kind":"row","epoch":42,"values":["<http://example.org/a&b>",null,"\"x\\\"y\"\n\u0001` + "\u2028é" + `"]}` + "\n"
	if string(line) != want {
		t.Errorf("line = %q\nwant   %q", line, want)
	}
	for _, s := range codecSeeds {
		if _, _, ok := DecodeRowEvent([]byte(s.line)); ok != s.mine {
			t.Errorf("DecodeRowEvent(%q) ok = %v, want %v", s.line, ok, s.mine)
		}
	}
	_, values, _ := DecodeRowEvent([]byte(codecSeeds[2].line))
	for i, want := range []string{"😀", "\ufffd", "\ufffd", "\ufffdx", "\ufffdA"} {
		if *values[i] != want {
			t.Errorf("surrogate case %d = %q, want %q", i, *values[i], want)
		}
	}
}
