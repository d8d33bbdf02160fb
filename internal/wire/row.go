package wire

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strings"
	"unicode/utf16"
	"unicode/utf8"

	"dualsim/internal/rdf"
)

// A streamed answer's rows are the only lines whose count scales with
// the answer, so they alone have a hand-written codec; every other
// event is one encoding/json call per response. Rows name their values
// through a term table that the stream builds as it goes:
//
//	"<http://example.org/film0>"
//	"\"a literal\""
//	[0,1,null]
//	[0,null,null]
//
// A term line is one JSON string, the cell of a value; the k-th term
// line of a stream (counting from 0) defines term k. A row line is a
// JSON array with one element per variable: the number of a term
// defined above it, or null for unbound. The writer defines each value
// once, before the first row that needs it (past a fixed bound on the
// distinct values one stream remembers, it defines a value again); the
// reader accepts a value defined twice, as other writers may emit it.
// The writer escapes only what RFC 8259 requires; the reader accepts
// every valid JSON string escape in a term line, so it also reads what
// an encoding/json writer emits. A value's JSON text is a cell,
// canonical when AppendCell spells it so.
//
// A relay (TermTable.RelayLine) carries one stream's lines into
// another that a TermWriter writes, without keeping a term: a term line
// goes out as it came, or re-escaped if it was not canonical, and a row
// line with its numbers moved up by the number the relayed stream's
// first term got in the other. The other stream stays on this grammar,
// but a value it had defined before the relayed lines is defined again
// by them.

// plain marks the bytes a JSON string carries as themselves: ASCII
// except the control range, the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// Key names one cell of a response: within one response, equal keys
// name equal cells. NoKey marks an unbound position.
type Key uint64

// NoKey is the key of an unbound position (null).
const NoKey = ^Key(0)

// CellAppender renders the cell a key names: the JSON string of the
// value's N-Triples rendering (<iri> or "literal"), through AppendTerm
// or AppendCell.
type CellAppender interface {
	AppendCell(dst []byte, k Key) []byte
}

// AppendEscaped appends s as the inside of a JSON string (the caller
// writes the quotes, and may write several fragments between them). It
// escapes the quote, the backslash and the control bytes; invalid UTF-8
// becomes U+FFFD one byte at a time, as encoding/json does. '<', '>',
// '&', U+2028 and U+2029 go out raw.
//
//dualsim:hotpath
func AppendEscaped(dst []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if plain[c] {
			i++
			continue
		}
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(s[i:])
			if r != utf8.RuneError || size != 1 {
				i += size
				continue
			}
		}
		dst = append(dst, s[start:i]...)
		switch c {
		case '"', '\\':
			dst = append(dst, '\\', c)
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		default:
			if c < 0x20 {
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			} else {
				dst = utf8.AppendRune(dst, utf8.RuneError)
			}
		}
		i++
		start = i
	}
	return append(dst, s[start:]...)
}

// AppendCell appends the canonical cell of s: AppendEscaped in quotes.
func AppendCell(dst []byte, s string) []byte {
	dst = append(dst, '"')
	dst = AppendEscaped(dst, s)
	return append(dst, '"')
}

// AppendTerm appends the cell of t's N-Triples rendering (<iri> or
// "literal"): the JSON string that decodes to t.String(), written
// without an intermediate string. Two escapings compose: N-Triples
// turns a literal's quote, backslash, \n, \t and \r into backslash
// pairs, JSON then escapes those backslashes (and the quote) again;
// everything else is only JSON-escaped.
//
//dualsim:hotpath
func AppendTerm(dst []byte, t rdf.Term) []byte {
	v := t.Value
	if t.Kind == rdf.IRI {
		dst = append(dst, '"', '<')
		dst = AppendEscaped(dst, v)
		return append(dst, '>', '"')
	}
	dst = append(dst, `"\"`...)
	from := 0
	for i := 0; i < len(v); i++ {
		var esc string
		switch v[i] {
		case '"':
			esc = `\\\"`
		case '\\':
			esc = `\\\\`
		case '\n':
			esc = `\\n`
		case '\t':
			esc = `\\t`
		case '\r':
			esc = `\\r`
		default:
			continue
		}
		dst = AppendEscaped(dst, v[from:i])
		dst = append(dst, esc...)
		from = i + 1
	}
	dst = AppendEscaped(dst, v[from:])
	return append(dst, `\""`...)
}

// Each stream's memo starts at memoSlots slots and grows before it is
// three quarters full, so a stream defines each key once, up to
// memoMaxSlots: a stream with more distinct keys than three quarters of
// that (786 432) starts a new generation instead of growing, and
// defines a key seen in the old one again. The reader takes a value
// defined twice, so the wire does not change and a writer never holds
// more than 12 MB of memo, whatever the stream.
const (
	memoSlots    = 1 << 12
	memoMaxSlots = 1 << 20
	numBits      = 20 // holds a key's number less its generation's base: below 3/4 of memoMaxSlots
	maxGen       = 1<<(32-numBits) - 1
)

// memo is an open-addressed map from keys to their term numbers,
// probed linearly from the slot a key's hash picks. A slot whose
// generation is not the memo's is free, so forgetting every key is one
// increment. The table a stream uses is a prefix of the slots the memo
// keeps: each stream starts at memoSlots, so a small stream after a
// large one probes 48 KB, not the large one's table. The zero value is
// empty; its slots are allocated on the first reset.
type memo struct {
	slots []memoSlot // the table: a power-of-two prefix of the slots kept
	shift uint8      // 64 - log2(len(slots)): a hash's top bits pick the home slot
	gen   uint32     // in [1, maxGen]: a slot of another generation is free
	base  uint32     // the number of the generation's first key
	n     int        // keys in the current generation
}

// memoSlot is 12 bytes: the key's halves, and its generation above its
// number less the generation's base.
type memoSlot struct {
	lo, hi uint32
	tag    uint32
}

func (s *memoSlot) holds(k Key) bool { return s.lo == uint32(k) && s.hi == uint32(k>>32) }

func (s *memoSlot) key() Key { return Key(s.hi)<<32 | Key(s.lo) }

// home is k's first slot to probe.
func (m *memo) home(k Key) uint64 { return uint64(k) * 0x9e3779b97f4a7c15 >> m.shift }

// live reports whether s belongs to the current generation.
func (m *memo) live(s *memoSlot) bool { return s.tag>>numBits == m.gen }

// reset forgets every key and shrinks the table to memoSlots, keeping
// the slots beyond it for a later stream to grow into.
func (m *memo) reset() {
	if m.slots == nil {
		m.slots = make([]memoSlot, memoSlots)
	}
	m.slots, m.shift = m.slots[:memoSlots], 64-12 // 12 = log2(memoSlots)
	m.forget(0)
}

// forget starts a new generation whose first key is numbered base:
// every slot is free. A stream grows its table at most
// log2(memoMaxSlots/memoSlots) = 8 times, each into a generation of its
// own, so the slots are cleared while that many are left.
func (m *memo) forget(base uint32) {
	if m.gen >= maxGen-8 {
		clear(m.slots[:cap(m.slots)])
		m.gen = 0
	}
	m.gen++
	m.base, m.n = base, 0
}

// lookup returns k's number, or, if k is new, stores next as its number
// and reports the miss. It is the miss path of AppendRow, which finds a
// key sitting in its home slot itself.
func (m *memo) lookup(k Key, next uint32) (uint32, bool) {
	mask := uint64(len(m.slots) - 1)
	i := m.home(k)
	for ; m.live(&m.slots[i]); i = (i + 1) & mask {
		if m.slots[i].holds(k) {
			return m.base + m.slots[i].tag&(1<<numBits-1), true
		}
	}
	switch {
	case next-m.base >= 1<<numBits:
		// Relayed term lines moved next past what a slot holds.
		m.forget(next)
		i = m.free(k)
	case 4*(m.n+1) > 3*len(m.slots):
		if len(m.slots) < memoMaxSlots {
			m.grow()
		} else {
			m.forget(next)
		}
		i = m.free(k)
	}
	m.slots[i] = memoSlot{lo: uint32(k), hi: uint32(k >> 32), tag: m.gen<<numBits | (next - m.base)}
	m.n++
	return next, false
}

// free returns the first slot on k's probe path that the current
// generation does not hold.
func (m *memo) free(k Key) uint64 {
	i := m.home(k)
	for m.live(&m.slots[i]) {
		i = (i + 1) & uint64(len(m.slots)-1)
	}
	return i
}

// grow enlarges the table and re-inserts the current generation's keys
// in place: the enlarged table starts with the old one, a re-inserted
// key joins a new generation with the same number, and a slot it lands
// on that still holds a key of the old generation hands that key on to
// be re-inserted next. The table takes every slot the memo keeps, or
// twice its slots once it has them all, so a stream as large as an
// earlier one moves its keys once, when it outgrows memoSlots.
func (m *memo) grow() {
	old, s := m.gen, len(m.slots)
	if s == cap(m.slots) {
		grown := make([]memoSlot, 2*s)
		copy(grown, m.slots)
		m.slots = grown
	}
	m.slots = m.slots[:cap(m.slots)]
	m.shift = uint8(64 - bits.TrailingZeros(uint(len(m.slots))))
	m.gen++ // forget left room for it
	for i := range s {
		e := m.slots[i]
		if e.tag>>numBits != old {
			continue
		}
		m.slots[i].tag = 0
		for e.tag>>numBits == old {
			j := m.free(e.key())
			e.tag = m.gen<<numBits | e.tag&(1<<numBits-1)
			e, m.slots[j] = m.slots[j], e
		}
	}
}

// digitPairs spells 00 to 99, two bytes each.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// appendNum appends n in decimal. Numbers below 10 000, the terms of
// most streams, are a fixed number of bytes picked from digitPairs.
//
//dualsim:hotpath
func appendNum(dst []byte, n uint32) []byte {
	switch {
	case n < 10:
		return append(dst, byte('0'+n))
	case n < 100:
		return append(dst, digitPairs[2*n], digitPairs[2*n+1])
	case n < 10000:
		q, r := n/100, 2*(n%100)
		if q < 10 {
			return append(dst, byte('0'+q), digitPairs[r], digitPairs[r+1])
		}
		return append(dst, digitPairs[2*q], digitPairs[2*q+1], digitPairs[r], digitPairs[r+1])
	}
	var b [10]byte
	i := len(b)
	for n >= 100 {
		q, r := n/100, 2*(n%100)
		i -= 2
		b[i], b[i+1] = digitPairs[r], digitPairs[r+1]
		n = q
	}
	if n >= 10 {
		i -= 2
		b[i], b[i+1] = digitPairs[2*n], digitPairs[2*n+1]
	} else {
		i--
		b[i] = byte('0' + n)
	}
	return append(dst, b[i:]...)
}

// TermWriter writes the term and row lines of one stream: it numbers
// each key's cell on its first row and then writes only the number, so
// a stream defines each key once (past three quarters of a million
// distinct keys its memo starts over, and a key seen before that is
// defined again under a new number). Call Reset before each stream; the
// memo keeps its grown size across Reset.
type TermWriter struct {
	memo memo
	next uint32 // the number of the next term defined
	row  []byte // the row line being built while its terms are defined
}

// Reset starts a new stream: no term is defined.
func (w *TermWriter) Reset() {
	w.memo.reset()
	w.next = 0
}

// Size returns the bytes the writer holds on to across Reset, for a
// free list that keeps only small writers.
func (w *TermWriter) Size() int { return 12 * cap(w.memo.slots) }

// Terms returns the number of terms the stream has defined.
func (w *TermWriter) Terms() uint32 { return w.next }

// AppendTermLine appends a term line that defines the stream's next
// term: cell, which must be a canonical cell, and a newline. The memo
// does not learn it, so a key AppendRow writes later is defined again.
func (w *TermWriter) AppendTermLine(dst, cell []byte) []byte {
	w.next++
	return append(append(dst, cell...), '\n')
}

// AppendRow appends one row line, newline included, after a term line
// for each of its keys the stream has not defined. keys holds one key
// per variable, NoKey for unbound; cells renders the terms.
//
//dualsim:hotpath
func (w *TermWriter) AppendRow(dst []byte, keys []Key, cells CellAppender) []byte {
	row := append(w.row[:0], '[')
	m := &w.memo
	for i, k := range keys {
		if i > 0 {
			row = append(row, ',')
		}
		if k == NoKey {
			row = append(row, "null"...)
			continue
		}
		s := &m.slots[m.home(k)]
		num := m.base + s.tag&(1<<numBits-1)
		if !m.live(s) || !s.holds(k) {
			var known bool
			if num, known = m.lookup(k, w.next); !known {
				dst = append(cells.AppendCell(dst, k), '\n')
				w.next++
			}
		}
		row = appendNum(row, num)
	}
	w.row = append(row, ']', '\n')
	return append(dst, w.row...)
}

// Line kinds, as TermTable.Read classifies a line.
const (
	LineEvent = iota // a JSON object, or anything else: json.Unmarshal's
	LineTerm         // a term line, added to the table
	LineRow          // a row line, now the current row
)

// maxChunk caps a TermTable's chunks, in values (text chunks: 16× in
// bytes).
const maxChunk = 4096

// TermTable reads the term and row lines of one stream and keeps each
// term once, in the one form its reader reads: a table read for values
// keeps each term decoded, for AppendRow; a table read for cells keeps
// each term's canonical cell (the line itself, or re-escaped if the
// line spelled it otherwise: \/, \b, \u0041, invalid UTF-8), for Cell,
// so equal values have equal cells. Values and cells are carved from
// chunks that are never written twice, so they stay valid after Reset.
// A row is not: Refs is a view valid until the next Read, and AppendRow
// fills a slice the caller owns, so a reader that keeps a row copies
// its slice (the values in it need no copy).
type TermTable struct {
	n     int       // terms defined so far
	vals  []*string // read for values: vals[k] is term k's value
	cells []string  // read for cells: cells[k] is term k's cell
	refs  []int32   // the current row: term numbers, -1 for null

	strs chunk[string]
	buf  strings.Builder // the current text chunk
	last int             // the size of the current text chunk
	esc  []byte          // a term line's cell, re-escaped (cell)
}

var (
	errTermLine = errors.New("wire: a term line is not exactly one JSON string")
	errRowLine  = errors.New("wire: a row line is not an array of term numbers and nulls")
	errTerms    = errors.New("wire: more terms in one stream than a table holds")
	null        = []byte("null")
)

// Reset empties the table for the next stream and lets go of its
// chunks.
func (t *TermTable) Reset() {
	clear(t.vals)
	clear(t.cells)
	t.n, t.vals, t.cells, t.refs = 0, t.vals[:0], t.cells[:0], t.refs[:0]
	t.strs, t.buf, t.last = chunk[string]{}, strings.Builder{}, 0
}

// Len returns the number of terms defined so far.
func (t *TermTable) Len() int { return t.n }

// Size returns the bytes the table holds on to across Reset, for a pool
// that keeps only small tables.
func (t *TermTable) Size() int { return 8*cap(t.vals) + 16*cap(t.cells) + 4*cap(t.refs) + cap(t.esc) }

// Cell returns term k's canonical cell, of a table read for cells.
func (t *TermTable) Cell(k int32) string { return t.cells[k] }

// Refs returns the current row's term numbers, -1 for null, valid until
// the next Read.
func (t *TermTable) Refs() []int32 { return t.refs }

// Read reads one line (with or without its newline) of a stream whose
// rows have width values. A term line is added to the table, as a value
// if values is set and as a cell if not; a row line becomes the current
// row. Both are checked, and a malformed one is an error. Any other
// line is reported as LineEvent, for json.Unmarshal.
//
//dualsim:hotpath
func (t *TermTable) Read(line []byte, width int, values bool) (int, error) {
	line, kind := classify(line)
	switch kind {
	case LineTerm:
		return kind, t.readTerm(line, values)
	case LineRow:
		return kind, t.readRow(line, width)
	}
	return kind, nil
}

// classify returns line without its newline, and its kind.
func classify(line []byte) ([]byte, int) {
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	switch {
	case len(line) == 0:
		return line, LineEvent
	case line[0] == '"':
		return line, LineTerm
	case line[0] == '[':
		return line, LineRow
	}
	return line, LineEvent
}

// RelayLine reads a term or row line of the stream t reads, as Read
// reads it, and appends it to dst as a line of the stream w writes; it
// returns the line's kind, and leaves any other line alone. A
// malformed line is an error, and dst is returned as it was. A term
// line goes out as its canonical cell (AppendTermLine): the line
// itself, or its value re-escaped if the line spelled it otherwise; the
// table counts the term and keeps nothing of it. A row line goes out
// with each term number moved up by base, the number w gave the
// stream's term 0, and with its columns picked by cols: column j of the
// written row is the line's column cols[j], or null where cols[j] is -1.
//
//dualsim:hotpath
func (t *TermTable) RelayLine(dst, line []byte, width int, cols []int, base uint32, w *TermWriter) ([]byte, int, error) {
	line, kind := classify(line)
	switch kind {
	case LineTerm:
		if t.n == math.MaxInt32 {
			return dst, kind, errTerms
		}
		cell, ok := t.cell(line)
		if !ok {
			return dst, kind, errTermLine
		}
		t.n++
		return w.AppendTermLine(dst, cell), kind, nil
	case LineRow:
		if err := t.readRow(line, width); err != nil {
			return dst, kind, err
		}
		return appendRebased(dst, t.refs, cols, base), kind, nil
	}
	return dst, kind, nil
}

// appendRebased appends a row line, newline included, whose column j is
// refs[cols[j]] plus base, or null where cols[j] is -1 or names a null.
//
//dualsim:hotpath
func appendRebased(dst []byte, refs []int32, cols []int, base uint32) []byte {
	dst = append(dst, '[')
	for j, c := range cols {
		if j > 0 {
			dst = append(dst, ',')
		}
		if c < 0 || refs[c] < 0 {
			dst = append(dst, null...)
		} else {
			dst = appendNum(dst, base+uint32(refs[c]))
		}
	}
	return append(dst, ']', '\n')
}

// readTerm adds a term line to the table: its value, or its cell.
//
//dualsim:hotpath
func (t *TermTable) readTerm(line []byte, values bool) error {
	if t.n == math.MaxInt32 {
		return errTerms
	}
	if values {
		v := t.decode(line)
		if v == nil {
			return errTermLine
		}
		t.vals = push(t.vals, v)
	} else {
		cell, ok := t.cell(line)
		if !ok {
			return errTermLine
		}
		t.cells = push(t.cells, t.carve(cell))
	}
	t.n++
	return nil
}

// cell returns the canonical cell of a term line: the line itself, or
// its value re-escaped, valid until the next call; false if the line is
// not exactly one JSON string.
//
//dualsim:hotpath
func (t *TermTable) cell(line []byte) ([]byte, bool) {
	if i := 0; canonical(line, &i) && i == len(line) {
		return line, true
	}
	v := t.decode(line)
	if v == nil {
		return nil, false
	}
	t.esc = AppendCell(t.esc[:0], *v)
	return t.esc, true
}

// carve copies b into the current text chunk.
//
//dualsim:hotpath
func (t *TermTable) carve(b []byte) string {
	t.reserve(len(b))
	from := t.buf.Len()
	t.buf.Write(b)
	return t.buf.String()[from:]
}

// decode returns the value of the JSON string s, carved from the
// current text chunk, or nil if s is not exactly one JSON string.
//
//dualsim:hotpath
func (t *TermTable) decode(s []byte) *string {
	t.reserve(len(s))
	from := t.buf.Len()
	if unquote(&t.buf, s, 1) != len(s) {
		return nil
	}
	h := t.strs.carve(1)
	h[0] = t.buf.String()[from:]
	return &h[0]
}

// reserve starts a new text chunk if the current one has no room for n
// more bytes; the old one stays with the strings carved from it.
func (t *TermTable) reserve(n int) {
	if t.buf.Cap()-t.buf.Len() < n {
		t.last = max(n, min(2*t.last, 16*maxChunk))
		t.buf = strings.Builder{}
		t.buf.Grow(t.last)
	}
}

// readRow reads a row line into refs: '[', then width elements, each a
// term number without sign, fraction, exponent or leading zero, or
// null, separated by commas, then ']'. No whitespace.
//
//dualsim:hotpath
func (t *TermTable) readRow(line []byte, width int) error {
	refs, i := t.refs[:0], 1
	if len(line) > 1 && line[1] == ']' {
		i = 2
	} else {
		for {
			if i == len(line) {
				return errRowLine
			}
			if c := line[i]; c == 'n' {
				if !bytes.HasPrefix(line[i:], null) {
					return errRowLine
				}
				i += len(null)
				refs = append(refs, -1)
			} else if c-'0' <= 9 {
				start, k := i, int(c-'0')
				for i++; i < len(line) && line[i]-'0' <= 9; i++ {
					k = k*10 + int(line[i]-'0')
				}
				switch {
				case c == '0' && i > start+1, i < len(line) && line[i] != ',' && line[i] != ']':
					return errRowLine
				case i > start+10 || k >= t.n: // more than 10 digits may have wrapped k
					return undefinedTerm(line[start:min(i, start+20)], t.n)
				}
				refs = append(refs, int32(k))
			} else {
				return errRowLine
			}
			if i == len(line) {
				return errRowLine
			}
			if i++; line[i-1] == ']' {
				break
			} else if line[i-1] != ',' {
				return errRowLine
			}
		}
	}
	t.refs = refs
	if i != len(line) {
		return errRowLine
	}
	if len(refs) != width {
		return wrongWidth(len(refs), width)
	}
	return nil
}

func undefinedTerm(num []byte, defined int) error {
	return fmt.Errorf("wire: a row names term %s, but the stream has defined %d", num, defined)
}

func wrongWidth(n, width int) error {
	return fmt.Errorf("wire: a row of %d values under %d variables", n, width)
}

// AppendRow appends the current row's values to dst, of a table read
// for values, as json.Unmarshal reads them, nil for null: the caller
// owns the slice and may reuse it for every row. Equal term numbers
// share one *string. Values are carved from chunks that are never
// written twice, so they stay valid after later rows and after Reset,
// and keep their chunks alive.
//
//dualsim:hotpath
func (t *TermTable) AppendRow(dst []*string) []*string {
	for _, k := range t.refs {
		var v *string
		if k >= 0 {
			v = t.vals[k]
		}
		dst = append(dst, v)
	}
	return dst
}

// push appends x to s. A slice that must grow doubles its length,
// allocated exactly, so a stream of N terms allocates about twice its
// final table and holds at most twice its entries. append's quarter
// steps would allocate five times it, and slices.Grow, which grows
// through append, may triple it.
func push[T any](s []T, x T) []T {
	if len(s) == cap(s) {
		grown := make([]T, len(s), max(2*len(s), 64))
		copy(grown, s)
		s = grown
	}
	return append(s, x)
}

// Value returns the value of a canonical cell, as json.Unmarshal reads it.
func Value(cell string) string {
	var v strings.Builder
	unquote(&v, []byte(cell), 1)
	return v.String()
}

// canonical reports whether the JSON string opening at s[*i] is
// canonical without a \u escape (a control byte's rare \u00XX is
// re-escaped as it was) and, if so, moves *i past its closing quote.
//
//dualsim:hotpath
func canonical(s []byte, i *int) bool {
	for j := *i + 1; ; j++ {
		for j < len(s) && plain[s[j]] {
			j++
		}
		if j == len(s) {
			return false
		}
		switch c := s[j]; {
		case c == '"':
			*i = j + 1
			return true
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(s[j:])
			if r == utf8.RuneError && size == 1 {
				return false
			}
			j += size - 1
		case c == '\\' && j+1 < len(s) && strings.IndexByte(`"\nrt`, s[j+1]) >= 0:
			j++
		default: // a raw control byte, or an escape AppendEscaped does not write
			return false
		}
	}
}

// chunk carves zeroed slices from blocks that double up to maxChunk.
type chunk[T any] struct {
	free []T
	last int
}

func (c *chunk[T]) carve(n int) []T {
	if n > len(c.free) {
		c.last = max(n, min(2*c.last, maxChunk))
		c.free = make([]T, c.last)
	}
	s := c.free[:n:n]
	c.free = c.free[n:]
	return s
}

// unquote appends the JSON string whose body starts at s[i] (just past
// the opening quote) to text, decoded exactly as encoding/json decodes
// it, and returns the index just past the closing quote, or -1 if the
// string is not valid JSON.
//
//dualsim:hotpath
func unquote(text *strings.Builder, s []byte, i int) int {
	for {
		j := i
		for j < len(s) && plain[s[j]] {
			j++
		}
		text.Write(s[i:j])
		if j == len(s) {
			return -1
		}
		c := s[j]
		switch {
		case c == '"':
			return j + 1
		case c >= utf8.RuneSelf:
			// Invalid bytes decode to (RuneError, 1): one U+FFFD each.
			r, size := utf8.DecodeRune(s[j:])
			text.WriteRune(r)
			i = j + size
		case c != '\\' || j+1 == len(s):
			return -1 // a raw control byte, or a line ending in a backslash
		default:
			i = j + 2
			switch s[j+1] {
			case '"', '\\', '/':
				text.WriteByte(s[j+1])
			case 'b':
				text.WriteByte('\b')
			case 'f':
				text.WriteByte('\f')
			case 'n':
				text.WriteByte('\n')
			case 'r':
				text.WriteByte('\r')
			case 't':
				text.WriteByte('\t')
			case 'u':
				r := hex4(s[j:])
				if r < 0 {
					return -1
				}
				i = j + 6
				if utf16.IsSurrogate(r) {
					// A valid pair is one rune; a lone half is U+FFFD and
					// whatever follows it is decoded on its own.
					if pair := utf16.DecodeRune(r, hex4(s[i:])); pair != utf8.RuneError {
						r = pair
						i += 6
					} else {
						r = utf8.RuneError
					}
				}
				text.WriteRune(r)
			default:
				return -1
			}
		}
	}
}

// hex4 returns the code unit of the \uXXXX escape s starts with, or -1.
func hex4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c -= 'a' - 10
		case c >= 'A' && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}
