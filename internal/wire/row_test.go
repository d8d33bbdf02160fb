package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"strings"
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

// cellOf is the canonical cell of a decoded value.
func cellOf(v *string) string {
	if v == nil {
		return "null"
	}
	return string(AppendCell(nil, *v))
}

// cellsOf renders key k as its k-th cell, the way a server forwarding
// cells does.
type cellsOf []string

func (c cellsOf) AppendCell(dst []byte, k Key) []byte { return append(dst, c[k]...) }

// rowCells returns the current row of a table read for values as
// cells, each the canonical cell of its value, "null" for null.
func rowCells(tab *TermTable) []string {
	var row []string
	for _, v := range tab.AppendRow(nil) {
		row = append(row, cellOf(v))
	}
	return row
}

// rowValues returns the current row of a table read for cells as
// values, each its cell's Value, nil for null.
func rowValues(tab *TermTable) []*string {
	var row []*string
	for _, k := range tab.Refs() {
		var v *string
		if k >= 0 {
			s := Value(tab.Cell(k))
			v = &s
		}
		row = append(row, v)
	}
	return row
}

// read is a reader's whole pass over a stream: every line through one
// table, reading values or cells, the rows' cells and values collected,
// the form the table does not keep computed from the one it does. It
// stops at the first error, and reports an event line as one.
func read(stream []byte, width int, values bool) (cells [][]string, vals [][]*string, err error) {
	var tab TermTable
	for _, line := range bytes.SplitAfter(stream, []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		kind, err := tab.Read(line, width, values)
		if err != nil {
			return cells, vals, err
		}
		switch kind {
		case LineEvent:
			return cells, vals, fmt.Errorf("not a term or row line: %q", line)
		case LineRow:
			if values {
				cells, vals = append(cells, rowCells(&tab)), append(vals, tab.AppendRow(nil))
			} else {
				row := make([]string, len(tab.Refs()))
				for i, k := range tab.Refs() {
					row[i] = string(null)
					if k >= 0 {
						row[i] = tab.Cell(k)
					}
				}
				cells, vals = append(cells, row), append(vals, rowValues(&tab))
			}
		}
	}
	return cells, vals, nil
}

// readBoth reads a stream for values and for cells; the two readers
// must agree on every cell, every value and the error.
func readBoth(t *testing.T, stream []byte, width int) ([][]string, [][]*string, error) {
	t.Helper()
	cells, vals, err := read(stream, width, true)
	kept, keptVals, keptErr := read(stream, width, false)
	if (err == nil) != (keptErr == nil) || len(cells) != len(kept) {
		t.Fatalf("%q: reading values: %d rows, %v; reading cells: %d rows, %v", stream, len(cells), err, len(kept), keptErr)
	}
	for r := range cells {
		if strings.Join(cells[r], ",") != strings.Join(kept[r], ",") {
			t.Fatalf("%q: row %d: cells %q reading values, %q reading cells", stream, r, cells[r], kept[r])
		}
		sameValues(t, "reading cells", keptVals[r], vals[r])
	}
	return cells, vals, err
}

// checkLine holds the reader to its contract on one arbitrary line of a
// stream, read into a values table and a cells table: the two agree,
// what they accept json.Unmarshal reads the same way, every term's cell
// is the canonical cell of its value, and a row line that is a
// well-formed array of defined term numbers is not refused.
func checkLine(t *testing.T, tabs *[2]TermTable, line []byte, width int) {
	t.Helper()
	kind, err := tabs[0].Read(line, width, true)
	keptKind, keptErr := tabs[1].Read(line, width, false)
	if kind != keptKind || (err == nil) != (keptErr == nil) {
		t.Fatalf("%q: kind %d, %v reading values; kind %d, %v reading cells", line, kind, err, keptKind, keptErr)
	}
	tab := &tabs[0]
	line = bytes.TrimSuffix(line, []byte{'\n'})
	switch {
	case kind == LineTerm && err == nil:
		var v string
		if jerr := json.Unmarshal(line, &v); jerr != nil {
			t.Fatalf("reader accepted the term line %q, json.Unmarshal rejects it: %v", line, jerr)
		}
		k := tab.Len() - 1
		if *tab.vals[k] != v {
			t.Fatalf("term line %q: value %q, want %q", line, *tab.vals[k], v)
		}
		if cell, want := tabs[1].Cell(int32(k)), string(AppendCell(nil, v)); cell != want || Value(cell) != v {
			t.Fatalf("term line %q: cell %s (value %q), want the canonical %s of %q", line, cell, Value(cell), want, v)
		}
	case kind == LineRow:
		var refs []*uint32
		jerr := json.Unmarshal(line, &refs)
		valid := jerr == nil && len(refs) == width && !bytes.ContainsAny(line, " \t\r\n-")
		for _, r := range refs {
			valid = valid && (r == nil || int(*r) < tab.Len())
		}
		if err == nil && !valid {
			t.Fatalf("reader accepted the row line %q (width %d, %d terms); json.Unmarshal: %v, %d values", line, width, tab.Len(), jerr, len(refs))
		}
		if err != nil && valid {
			t.Fatalf("reader refused the row line %q (width %d, %d terms): %v", line, width, tab.Len(), err)
		}
		if err == nil {
			for i, r := range refs {
				if got := tab.Refs()[i]; (r == nil) != (got < 0) || r != nil && int32(*r) != got {
					t.Fatalf("row line %q: ref %d read as %d", line, i, got)
				}
			}
			sameValues(t, "a row line read for cells", rowValues(&tabs[1]), tab.AppendRow(nil))
		}
	}
}

// checkEncode holds the writer to its contract: every line it writes is
// plain JSON, and the reader reads the stream back to the very cells it
// was built of and to the values json.Unmarshal gives them, and defines
// each key once. Each value gets its own key, so a value repeated in
// vals is defined twice.
func checkEncode(t *testing.T, vals []*string, width int) {
	t.Helper()
	cells := make(cellsOf, len(vals))
	for i, v := range vals {
		cells[i] = cellOf(v)
	}
	var w TermWriter
	w.Reset()
	var stream []byte
	var wantCells [][]string
	var wantVals [][]*string
	distinct := map[Key]bool{}
	for r := 0; r < 2*len(vals)+1; r++ { // every key twice, in rows that overlap
		keys := make([]Key, width)
		row, rowVals := make([]string, width), make([]*string, width)
		for j := range keys {
			k := (r + j) % len(vals)
			keys[j], row[j] = Key(k), cells[k]
			if vals[k] == nil {
				keys[j] = NoKey
			} else {
				distinct[Key(k)] = true
				s := asJSONReads(*vals[k])
				rowVals[j] = &s
			}
		}
		stream = w.AppendRow(stream, keys, cells)
		wantCells, wantVals = append(wantCells, row), append(wantVals, rowVals)
	}
	terms := 0
	for _, line := range bytes.Split(bytes.TrimSuffix(stream, []byte{'\n'}), []byte{'\n'}) {
		if !json.Valid(line) {
			t.Fatalf("the writer wrote %q, not JSON", line)
		}
		if line[0] == '"' {
			terms++
		}
	}
	if terms != len(distinct) { // far below the memo's cap
		t.Fatalf("the writer wrote %d term lines for %d distinct keys", terms, len(distinct))
	}
	gotCells, gotVals, err := readBoth(t, stream, width)
	if err != nil {
		t.Fatalf("reader refuses the writer's stream %q: %v", stream, err)
	}
	if len(gotCells) != len(wantCells) {
		t.Fatalf("%d rows read back, %d written", len(gotCells), len(wantCells))
	}
	for r := range wantCells {
		if strings.Join(gotCells[r], ",") != strings.Join(wantCells[r], ",") {
			t.Fatalf("row %d: cells %q read back, %q written", r, gotCells[r], wantCells[r])
		}
		sameValues(t, "a row read back", gotVals[r], wantVals[r])
	}
}

// valuesOf cuts arbitrary bytes into values: comma-separated, the word
// null for unbound, one value at least.
func valuesOf(data []byte) []*string {
	var vals []*string
	for _, f := range bytes.Split(data, []byte{','}) {
		if bytes.Equal(f, null) {
			vals = append(vals, nil)
			continue
		}
		s := string(f)
		vals = append(vals, &s)
	}
	return vals
}

// codecSeeds are the fuzz corpus, each a stream fragment read at the
// given width; ok says whether the reader takes every line of it.
var codecSeeds = []struct {
	stream string
	width  int
	ok     bool
}{
	// What an encoding/json writer emits: HTML-escaped terms.
	{`"\u003chttp://example.org/a\u003e"` + "\n" + `"\"lit \\\"q\\\" \u0026 \\n\""` + "\n[0,1,null]", 3, true},
	// Surrogates: a pair, a lone high half, a lone low half, high + junk.
	{`"\ud83d\ude00"` + "\n" + `"\ud83d"` + "\n" + `"\ude00"` + "\n" + `"\ud83dx"` + "\n" + `"\ud83d\u0041"` + "\n[0,1,2,3,4]", 5, true},
	// Invalid UTF-8, raw and beside valid multi-byte text; U+2028 raw and escaped.
	{"\"\xff\xfe\"\n\"é\xe2\x80\"\n\"\u2028\\u2028\"\n[2,1,0]", 3, true},
	// Every short escape, a control byte as \u00XX, an escaped slash.
	{`"\b\f\n\r\t\/\\\"\u0001"` + "\n[0]", 1, true},
	// Escapes that need not be: a letter, upper-case hex, a control byte
	// with a short form; beside cells already canonical.
	{`"<a>"` + "\n" + `"\u0041\u001F\u000a"` + "\n" + `"\u0008é"` + "\n[0,1,null,2]", 4, true},
	// A value defined twice, rows reading both numbers.
	{`"<a>"` + "\n" + `"<a>"` + "\n[0,1]\n[1,0]", 2, true},
	// Zero-width and all-null rows.
	{"[]\n[]", 0, true},
	{"[null,null,null]", 3, true},
	// Rows naming an undefined term, a negative, a fraction, an
	// exponent, a leading zero, a string, a huge number.
	{`"<a>"` + "\n[1]", 1, false},
	{`"<a>"` + "\n[-1]", 1, false},
	{`"<a>"` + "\n[0.0]", 1, false},
	{`"<a>"` + "\n[0e0]", 1, false},
	{`"<a>"` + "\n" + `"<b>"` + "\n[01]", 1, false},
	{`"<a>"` + "\n" + `["0"]`, 1, false},
	{`"<a>"` + "\n[18446744073709551616]", 1, false},
	// Rows of the wrong width, broken arrays, whitespace.
	{`"<a>"` + "\n[0,0]", 1, false},
	{`"<a>"` + "\n[0,]\n[0", 2, false},
	{`"<a>"` + "\n[0, null]", 2, false},
	// A row before the term it names.
	{"[0]\n\"<a>\"", 1, false},
	// Term lines that are not exactly one JSON string: trailing bytes,
	// a raw control byte, a cut string, a bad escape.
	{`"<a>" ` + "\n" + `"a"x` + "\n\"a\tb\"\n\"abc\n\"\\x\"", 0, false},
}

// relayOf picks what the fuzz input n asks the relay for: the width
// of the relayed rows (n's low 3 bits, as the reader's), the column map
// (up to 7 columns of 4 bits each, from bit 6; a column may be null),
// and the base (16 bits from bit 40). relayN spells such an n.
func relayOf(n uint64) (width int, cols []int, base uint32) {
	width = int(n % 8)
	for j := range int(n >> 3 % 8) {
		cols = append(cols, int(n>>(6+4*j)&15)%(width+1)-1)
	}
	return width, cols, uint32(n >> 40 & 0xffff)
}

func relayN(width int, cols []int, base uint32) uint64 {
	n := uint64(width) | uint64(len(cols))<<3 | uint64(base)<<40
	for j, c := range cols {
		n |= uint64(c+1) << (6 + 4*j)
	}
	return n
}

// checkRelay holds the relay to its contract on one stream: it takes
// the lines the reader takes and refuses, writing nothing, the first
// one the reader refuses; every line it writes is one line of JSON; a
// term line it writes is canonical; and a row it writes, with its terms
// numbered from base and its columns picked by cols, reads back through
// a table that holds base terms before the relayed ones as the original
// row's values, column by column.
func checkRelay(t *testing.T, data []byte, width int, cols []int, base uint32) {
	t.Helper()
	var src, relay, back TermTable
	back.n, back.vals = int(base), make([]*string, base) // base terms the relayed stream does not name
	var w TermWriter
	w.Reset()
	w.next = base
	var out []byte
	for _, line := range bytes.SplitAfter(data, []byte{'\n'}) {
		kind, err := src.Read(line, width, true)
		var rkind int
		var rerr error
		out, rkind, rerr = relay.RelayLine(out[:0], line, width, cols, base, &w)
		if kind != rkind || (err == nil) != (rerr == nil) {
			t.Fatalf("%q: the reader reads kind %d, %v; the relay kind %d, %v", line, kind, err, rkind, rerr)
		}
		if err != nil || kind == LineEvent {
			if len(out) != 0 {
				t.Fatalf("%q: the relay wrote %q for a line it does not take", line, out)
			}
			if err != nil {
				return
			}
			continue
		}
		if bytes.IndexByte(out, '\n') != len(out)-1 || !json.Valid(out[:len(out)-1]) {
			t.Fatalf("%q: the relay wrote %q, not one line of JSON", line, out)
		}
		if bkind, berr := back.Read(out, len(cols), true); bkind != kind || berr != nil {
			t.Fatalf("%q relayed as %q: read back as kind %d, %v", line, out, bkind, berr)
		}
		if kind == LineTerm {
			got := cellOf(back.vals[back.Len()-1])
			if want := cellOf(src.vals[src.Len()-1]); got != want || got != string(out[:len(out)-1]) {
				t.Fatalf("%q relayed as %q: reads back as %s, want the canonical %s", line, out, got, want)
			}
			continue
		}
		orig := src.AppendRow(nil)
		want := make([]*string, len(cols))
		for j, c := range cols {
			if c >= 0 {
				want[j] = orig[c]
			}
		}
		sameValues(t, fmt.Sprintf("%q relayed as %q, read back", line, out), back.AppendRow(nil), want)
	}
	if w.Terms() != base+uint32(relay.Len()) || relay.Len() != src.Len() {
		t.Fatalf("the writer counts %d terms after %d relayed from base %d; the reader read %d", w.Terms(), relay.Len(), base, src.Len())
	}
}

func FuzzRowCodec(f *testing.F) {
	for _, s := range codecSeeds {
		f.Add([]byte(s.stream), uint64(s.width))
		f.Add([]byte(s.stream+"\n"), uint64(s.width)|1<<63)
	}
	// Relayed rows: null refs under a map with a null column, maps that
	// widen and narrow the rows, and bases past appendNum's short forms.
	nulls := `"<a>"` + "\n" + `"\u0041"` + "\n[0,null,1]\n[null,null,null]\n[1,0,null]"
	f.Add([]byte(nulls), relayN(3, []int{2, -1, 0, 1}, 10_000))
	f.Add([]byte(nulls), relayN(3, []int{1}, 65_535))
	f.Add([]byte(`"<a>"`+"\n"+`"<b>"`+"\n[0,1]\n[1,1]"), relayN(2, []int{1, 1, -1, 0, 0}, 12_345))
	f.Add([]byte(`"<a>"`+"\n[0]\n[1]"), relayN(1, []int{0, 0}, 9_999))
	// What encoding/json writes for a term and a row.
	term, err := json.Marshal("\"q \\\"\" <&> \u2028\u2029 \x01\x1f é 😀")
	if err != nil {
		f.Fatal(err)
	}
	row, err := json.Marshal([]any{0, nil})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(append(term, '\n'), row...), uint64(2))
	f.Fuzz(func(t *testing.T, data []byte, n uint64) {
		width := int(n % 8)
		var tabs [2]TermTable
		for _, line := range bytes.SplitAfter(data, []byte{'\n'}) {
			checkLine(t, &tabs, line, width)
		}
		checkEncode(t, valuesOf(data), width)
		width, cols, base := relayOf(n)
		checkRelay(t, data, width, cols, base)
	})
}

// TestRowCodecShape pins what the fuzz properties leave open: the exact
// bytes of a stream, which seed streams the reader takes, the errors it
// names, and which term lines it keeps as spelled.
func TestRowCodecShape(t *testing.T) {
	cells := cellsOf{`"<http://example.org/a&b>"`, `"\"x\\\"y\"\n\u0001` + "\u2028é" + `"`}
	var w TermWriter
	w.Reset()
	var stream []byte
	for _, keys := range [][]Key{{0, NoKey, 1}, {1, 0, 0}, {NoKey, NoKey, NoKey}} {
		stream = w.AppendRow(stream, keys, cells)
	}
	want := cells[0] + "\n" + cells[1] + "\n[0,null,1]\n[1,0,0]\n[null,null,null]\n"
	if string(stream) != want {
		t.Errorf("stream = %q\nwant     %q", stream, want)
	}
	w.Reset() // a new stream numbers from 0 again
	if got := w.AppendRow(nil, []Key{1}, cells); string(got) != cells[1]+"\n[0]\n" {
		t.Errorf("after Reset: %q", got)
	}

	for _, s := range codecSeeds {
		if _, _, err := readBoth(t, []byte(s.stream), s.width); (err == nil) != s.ok {
			t.Errorf("reader on %q at width %d: %v, want ok %v", s.stream, s.width, err, s.ok)
		}
	}
	_, values, _ := readBoth(t, []byte(codecSeeds[1].stream), 5)
	for i, want := range []string{"😀", "\ufffd", "\ufffd", "\ufffdx", "\ufffdA"} {
		if *values[0][i] != want {
			t.Errorf("surrogate case %d = %q, want %q", i, *values[0][i], want)
		}
	}

	for _, tc := range []struct {
		stream string
		width  int
		want   string // a fragment of the error
	}{
		{`"<a>"` + "\n[3]", 1, "names term 3, but the stream has defined 1"},
		{"[0]", 1, "names term 0, but the stream has defined 0"},
		{`"<a>"` + "\n[18446744073709551616]", 1, "names term 18446744073709551616,"},
		{`"<a>"` + "\n[0,0]", 1, "a row of 2 values under 1 variables"},
		{`"<a>"` + "\n[-1]", 1, "not an array of term numbers"},
		{`"<a>"` + "\n[1.5]", 1, "not an array of term numbers"},
		{`"<a>"` + "\n[true]", 1, "not an array of term numbers"},
		{`"<a>" "<b>"`, 0, "not exactly one JSON string"},
		{`"<a>`, 0, "not exactly one JSON string"},
	} {
		if _, _, err := readBoth(t, []byte(tc.stream), tc.width); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("reader on %q: %v, want an error saying %q", tc.stream, err, tc.want)
		}
	}

	for _, tc := range []struct {
		line, want string // want "" means: kept as spelled
	}{
		{`"<a&b> é ` + "\u2028" + `"`, ""},
		{`"\"\\\n\r\t"`, ""},
		{`"\u0001\u001f"`, ""}, // canonical, by way of its value
		{`"\u003ca\u003e \u0026"`, `"<a> &"`},
		{`"\/\b\f"`, `"/\u0008\u000c"`},
		{`"\u000a\u0009\u000D\u001F\u0041\u00e9"`, `"\n\t\r\u001fAé"`},
		{`"\ud83d\ude00 \ud83d"`, "\"😀 \ufffd\""},
		{"\"a\xffb\"", "\"a\ufffdb\""},
	} {
		cells, _, err := readBoth(t, []byte(tc.line+"\n[0]"), 1)
		want := tc.want
		if want == "" {
			want = tc.line
		}
		if err != nil || len(cells) != 1 || cells[0][0] != want {
			t.Errorf("term line %s read as %q (%v), want %s", tc.line, cells, err, want)
		}
	}
}

// TestTermWriterDefinesOnce: a stream defines each key once, however
// many keys it has below the memo's cap, and reads back exactly. The
// second stream, after Reset, starts from a small table again and grows
// in place into the slots the first one left.
func TestTermWriterDefinesOnce(t *testing.T) {
	const keys = 3 * memoSlots
	cells := make(cellsOf, keys)
	for k := range cells {
		cells[k] = fmt.Sprintf(`"<http://example.org/%d>"`, k)
	}
	var w TermWriter
	for serve := range 2 {
		w.Reset()
		if n := len(w.memo.slots); n != memoSlots {
			t.Fatalf("stream %d starts with %d slots, want %d", serve, n, memoSlots)
		}
		var stream []byte
		for pass := 0; pass < 2; pass++ {
			for k := 0; k < keys; k++ {
				stream = w.AppendRow(stream, []Key{Key(k), Key(k / 2)}, cells)
			}
		}
		got, _, err := readBoth(t, stream, 2)
		if err != nil || len(got) != 2*keys {
			t.Fatalf("stream %d: %d rows read back: %v", serve, len(got), err)
		}
		for r, row := range got {
			if k := r % keys; row[0] != cells[k] || row[1] != cells[k/2] {
				t.Fatalf("stream %d: row %d = %q, want %s,%s", serve, r, row, cells[k], cells[k/2])
			}
		}
		if terms := bytes.Count(stream, []byte{'"', '\n'}); terms != keys {
			t.Errorf("stream %d: %d term lines for %d keys read twice, want %d", serve, terms, keys, keys)
		}
	}
}

// TestTermWriterAfterRelayedLines: term lines copied into a stream
// (AppendTermLine, a router relaying a shard's branch) are numbered in
// it but not remembered, and may move the stream's next number further
// from the memo's generation than a slot can hold. The next key the
// memo must learn then starts a new generation, as a memo at its cap
// does: a key it knew before is defined again, and every row reads
// back as written.
func TestTermWriterAfterRelayedLines(t *testing.T) {
	const copied = 1<<numBits + 3
	cells := cellsOf{`"<a>"`, `"<b>"`, `"<c>"`}
	var w TermWriter
	w.Reset()
	stream := w.AppendRow(nil, []Key{0}, cells)
	for range copied {
		stream = w.AppendTermLine(stream, []byte(`"<x>"`))
	}
	stream = w.AppendRow(stream, []Key{0, 1}, cells)
	stream = w.AppendRow(stream, []Key{2, 1, 0}, cells)
	if w.Terms() != copied+4 { // <a>, then <b>, <c> and <a> again
		t.Fatalf("the writer counts %d terms, want %d", w.Terms(), copied+4)
	}
	var tab TermTable
	var rows []string
	for _, line := range bytes.SplitAfter(stream, []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		width := bytes.Count(line, []byte{','}) + 1
		kind, err := tab.Read(line, width, false)
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		if kind == LineRow {
			var row []string
			for _, k := range tab.Refs() {
				row = append(row, tab.Cell(k))
			}
			rows = append(rows, strings.Join(row, ","))
		}
	}
	want := []string{`"<a>"`, `"<a>","<b>"`, `"<c>","<b>","<a>"`}
	if !slices.Equal(rows, want) {
		t.Fatalf("rows read back %q, want %q", rows, want)
	}
}

// TestTermWriterCap: a stream with more distinct keys than the memo
// holds at its cap starts a new generation instead of growing, defines
// the keys it forgot again, and still reads back exactly.
func TestTermWriterCap(t *testing.T) {
	const (
		full  = 3 * memoMaxSlots / 4 // keys of the generation that fills the cap
		keys  = full + 1000
		again = 100 // keys of the first generation read once more
	)
	cells := make(cellsOf, keys)
	for k := range cells {
		cells[k] = fmt.Sprintf(`"<%d>"`, k)
	}
	var w TermWriter
	w.Reset()
	var stream []byte
	var want []string
	row := func(k int) {
		stream = w.AppendRow(stream, []Key{Key(k)}, cells)
		want = append(want, cells[k])
		if n := len(w.memo.slots); n > memoMaxSlots {
			t.Fatalf("after key %d the memo has %d slots, over its cap of %d", k, n, memoMaxSlots)
		}
	}
	for k := range keys {
		row(k)
	}
	for k := keys - again; k < keys; k++ { // the new generation remembers these
		row(k)
	}
	for k := range again { // and forgot these
		row(k)
	}
	if n := len(w.memo.slots); n != memoMaxSlots {
		t.Errorf("the memo has %d slots, want its cap %d", n, memoMaxSlots)
	}
	if terms := bytes.Count(stream, []byte{'"', '\n'}); terms != keys+again {
		t.Errorf("%d term lines, want %d: %d keys, %d of them forgotten and read again", terms, keys+again, keys, again)
	}
	got, _, err := read(stream, 1, false)
	if err != nil || len(got) != len(want) {
		t.Fatalf("%d rows read back, %d written: %v", len(got), len(want), err)
	}
	for r := range want {
		if got[r][0] != want[r] {
			t.Fatalf("row %d = %s, want %s", r, got[r][0], want[r])
		}
	}
}

// TestTermWriterGenerations: the generations run out of bits after
// about two thousand streams that grow their tables; the memo then
// clears its slots and starts over, and every stream across the wrap
// still defines each key once and reads back exactly.
func TestTermWriterGenerations(t *testing.T) {
	const keys = 2 * memoSlots // each stream grows its table in place once
	cells := make(cellsOf, keys)
	for k := range cells {
		cells[k] = fmt.Sprintf(`"<%d>"`, k)
	}
	var w TermWriter
	w.Reset()
	w.memo.gen = maxGen - 14
	wrapped := false
	for serve := range 6 {
		before := w.memo.gen
		w.Reset()
		wrapped = wrapped || w.memo.gen < before
		if w.memo.gen > maxGen-8 {
			t.Fatalf("stream %d starts at generation %d, too close to %d", serve, w.memo.gen, maxGen)
		}
		var stream []byte
		for k := range keys {
			stream = w.AppendRow(stream, []Key{Key(k), Key(keys - 1 - k)}, cells)
		}
		got, _, err := read(stream, 2, false)
		if err != nil || len(got) != keys {
			t.Fatalf("stream %d: %d rows read back: %v", serve, len(got), err)
		}
		for r, row := range got {
			if row[0] != cells[r] || row[1] != cells[keys-1-r] {
				t.Fatalf("stream %d: row %d = %q", serve, r, row)
			}
		}
		if terms := bytes.Count(stream, []byte{'"', '\n'}); terms != keys {
			t.Fatalf("stream %d: %d term lines for %d keys", serve, terms, keys)
		}
	}
	if !wrapped {
		t.Errorf("six streams from generation %d never started the generations over", maxGen-14)
	}
}

// TestTermWriterReuseAllocs: a writer that has served a stream serves
// it again after Reset without allocating: its memo keeps its grown
// slots.
func TestTermWriterReuseAllocs(t *testing.T) {
	const keys = 20_000
	cells := make(cellsOf, keys)
	for k := range cells {
		cells[k] = fmt.Sprintf(`"<http://example.org/%d>"`, k)
	}
	var w TermWriter
	var stream []byte
	var appender CellAppender = cells // converted once: a slice in an interface is a copy
	serve := func() {
		w.Reset()
		stream = stream[:0]
		for k := range keys {
			stream = w.AppendRow(stream, []Key{Key(k), Key(keys - 1 - k)}, appender)
		}
	}
	serve()
	first := slices.Clone(stream)
	if allocs := testing.AllocsPerRun(5, serve); allocs != 0 {
		t.Errorf("re-serving a %d-key stream allocates %.0f times, want 0", keys, allocs)
	}
	if !bytes.Equal(stream, first) {
		t.Errorf("the re-served stream differs from the first")
	}
}

// BenchmarkTermWriter: what the writer costs per row, and the bytes it
// writes per row, for two columns each drawn from n distinct keys over
// a stream of 20 000 rows. Run it with
//
//	go test ./internal/wire -run '^$' -bench BenchmarkTermWriter
func BenchmarkTermWriter(b *testing.B) {
	const rows = 20_000
	for _, n := range []int{1000, 3000, 8000, 20_000} {
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			cells := make(cellsOf, 2*n)
			for k := range cells {
				cells[k] = fmt.Sprintf(`"<http://example.org/resource/%d>"`, k)
			}
			rng := rand.New(rand.NewPCG(1, uint64(n)))
			keys := make([]Key, 2*rows)
			for i := range rows {
				keys[2*i], keys[2*i+1] = Key(rng.IntN(n)), Key(n+rng.IntN(n))
			}
			var w TermWriter
			var stream []byte
			var appender CellAppender = cells
			for b.Loop() {
				w.Reset()
				stream = stream[:0]
				for i := range rows {
					stream = w.AppendRow(stream, keys[2*i:2*i+2], appender)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
			b.ReportMetric(float64(len(stream))/rows, "B/row")
		})
	}
}

// TestDecodeSlab: values are carved from chunks, so a row's values
// stay valid while later rows are read into the same slice and after
// Reset, equal terms share one string, and rows read into a reused
// slice allocate nothing.
func TestDecodeSlab(t *testing.T) {
	var tab TermTable
	for _, line := range []string{`"<http://example.org/s>"`, `"\"lit\\n\""`, "[0,null,1]"} {
		if _, err := tab.Read([]byte(line), 3, true); err != nil {
			t.Fatal(err)
		}
	}
	first := tab.AppendRow(nil)
	row, dst := []byte("[1,0,0]"), first[:0:0]
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 1000; i++ {
			tab.Read(row, 3, true)
			dst = tab.AppendRow(dst[:0])
		}
	})
	if again := tab.AppendRow(nil); again[1] != again[2] || again[1] != first[0] {
		t.Errorf("equal terms decoded to separate strings")
	}
	tab.Reset()
	for _, line := range []string{`"<http://example.org/other>"`, "[0,0,0]"} {
		if _, err := tab.Read([]byte(line), 3, true); err != nil {
			t.Fatal(err)
		}
	}
	dst = tab.AppendRow(dst[:0])
	if *first[0] != "<http://example.org/s>" || first[1] != nil || *first[2] != `"lit\n"` {
		t.Fatalf("the first row changed under later decodes: %q %v %q", *first[0], first[1], *first[2])
	}
	if allocs > 0 {
		t.Errorf("%.0f allocations per 1000 rows, want 0", allocs)
	}
}

// TestTermTableGrowthAllocs pins how a table grows: a stream of fresh
// terms read as cells allocates its text and about twice its final
// term slice, because a slice that grows doubles; append's quarter
// steps past 256 entries would allocate about five times it. Each
// growth at most doubles the slice's length, so the table never holds
// more than twice its entries (growing through append overshoots to
// three times, and 10^5 terms held 1.85 times their number).
func TestTermTableGrowthAllocs(t *testing.T) {
	const terms = 100_000
	lines := make([][]byte, terms)
	for i := range lines {
		lines[i] = fmt.Appendf(nil, `"<n%d>"`, i)
	}
	var tab TermTable
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, line := range lines {
		held, room := len(tab.cells), cap(tab.cells)
		if _, err := tab.Read(line, 0, false); err != nil {
			t.Fatal(err)
		}
		if c := cap(tab.cells); c != room && c > max(2*held, 64) {
			t.Fatalf("holding %d cells, the table grew to %d", held, c)
		}
	}
	runtime.ReadMemStats(&after)
	if c := cap(tab.cells); c > 2*terms {
		t.Errorf("%d cells are held in room for %d", terms, c)
	}
	if tab.Len() != terms {
		t.Fatalf("the table holds %d terms, want %d", tab.Len(), terms)
	}
	alloc, size := after.TotalAlloc-before.TotalAlloc, uint64(tab.Size())
	t.Logf("%d term lines allocated %d KB; the table's Size is %d KB", terms, alloc>>10, size>>10)
	if alloc > 3*size {
		t.Errorf("reading %d term lines allocated %d bytes, over 3× the table's %d", terms, alloc, size)
	}
}
