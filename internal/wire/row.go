package wire

import (
	"bytes"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"

	"dualsim/internal/rdf"
)

// The row event is the only message whose count scales with the answer,
// so it alone has a hand-written codec; every other event is one
// encoding/json call per response. The line is
//
//	{"kind":"row","epoch":N,"values":["<iri>","\"literal\"",null]}
//
// in exactly that key order with no whitespace. The encoder escapes only
// what RFC 8259 requires; the reader accepts every valid JSON string
// escape, so it also reads the lines an encoding/json server writes
// (reflected Event, HTML-escaped) as long as the keys come in this order.
// A value's JSON text is a cell, canonical when AppendCell spells it so.

var (
	rowOpen   = []byte(`{"kind":"row","epoch":`)
	rowValues = []byte(`,"values":`)
	rowClose  = []byte("]}")
	null      = []byte("null")
)

// plain marks the bytes a JSON string carries as themselves: ASCII
// except the control range, the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// RowAppender renders its current row as the JSON array of the row's
// values — strings in N-Triples rendering, null for unbound — appended
// to dst. The same array is the row's form inside the buffered shape
// (QueryResponse.Rows).
type RowAppender interface {
	AppendRow(dst []byte) []byte
}

// AppendRowEvent appends one row event line, newline included.
//
//dualsim:hotpath
func AppendRowEvent(dst []byte, epoch uint64, row RowAppender) []byte {
	dst = append(dst, rowOpen...)
	dst = strconv.AppendUint(dst, epoch, 10)
	dst = append(dst, rowValues...)
	dst = row.AppendRow(dst)
	return append(dst, '}', '\n')
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

// maxChunk caps Decode's chunks, in values (text chunks: 16× in bytes).
const maxChunk = 4096

// RowReader reads row lines: Split cuts one into canonical cells and
// Decode turns cells into values. Use one per stream.
type RowReader struct {
	cells [][]byte        // the last split line's cells
	buf   []byte          // the cells Split re-escaped
	tmp   strings.Builder // the values of the cells Split re-escaped

	vals chunk[*string]
	strs chunk[string]
	text strings.Builder // the current text chunk
	last int             // the size of the current text chunk
}

// Split cuts one line (with or without its newline) into its cells if
// it is a row event in the canonical shape. ok false means "not mine",
// not "malformed": other events, key orders, interior whitespace and
// broken lines go to json.Unmarshal, which decodes or rejects them.
// Canonical cells alias line, the others (\/, \b, \u0041, invalid UTF-8)
// are re-escaped; equal values have equal cells. They are valid until
// the next Split, and while line is.
//
//dualsim:hotpath
func (r *RowReader) Split(line []byte) (epoch uint64, cells [][]byte, ok bool) {
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	rest, ok := bytes.CutPrefix(line, rowOpen)
	if !ok {
		return 0, nil, false
	}
	i := 0
	for ; i < len(rest) && rest[i] >= '0' && rest[i] <= '9'; i++ {
		d := uint64(rest[i] - '0')
		if epoch > (1<<64-1-d)/10 {
			return 0, nil, false // json.Unmarshal reports the overflow
		}
		epoch = epoch*10 + d
	}
	if i == 0 || (i > 1 && rest[0] == '0') {
		return 0, nil, false
	}
	rest, ok = bytes.CutPrefix(rest[i:], rowValues)
	if !ok || len(rest) < 2 || rest[0] != '[' {
		return 0, nil, false
	}
	cells, r.buf = r.cells[:0], r.buf[:0]
	r.tmp.Reset()
	i = 1
	for rest[i] != ']' { // only an empty array skips the loop; it ends by break
		start := i
		switch {
		case rest[i] == '"' && canonical(rest, &i):
			cells = append(cells, rest[start:i])
		case rest[i] == '"': // re-escaped into r.buf by way of its value in r.tmp
			from, at := len(r.buf), r.tmp.Len()
			if i = unquote(&r.tmp, rest, start+1); i < 0 {
				return 0, nil, false
			}
			r.buf = AppendCell(r.buf, r.tmp.String()[at:])
			cells = append(cells, r.buf[from:])
		case bytes.HasPrefix(rest[i:], null):
			i += len(null)
			cells = append(cells, rest[start:i])
		default:
			return 0, nil, false
		}
		if i == len(rest) || rest[i] != ',' {
			break
		}
		if i++; i == len(rest) || rest[i] == ']' {
			return 0, nil, false
		}
	}
	r.cells = cells
	if !bytes.Equal(rest[i:], rowClose) {
		return 0, nil, false
	}
	return epoch, cells, true
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

// Decode returns the values of cells from Split as json.Unmarshal reads
// them, nil for null. Values, string headers and text are carved from
// chunks that start at the first row's size and double; nothing is
// recycled, so values stay valid and keep their chunks alive.
//
//dualsim:hotpath
func (r *RowReader) Decode(cells [][]byte) []*string {
	strs, size := 0, 0
	for _, c := range cells {
		if c[0] == '"' {
			strs++
			size += len(c) - 2 // a canonical value is never longer than its cell's body
		}
	}
	values, headers := r.vals.carve(len(cells)), r.strs.carve(strs)
	if r.text.Cap()-r.text.Len() < size {
		r.last = max(size, min(2*r.last, 16*maxChunk))
		r.text = strings.Builder{}
		r.text.Grow(r.last)
	}
	for i, c := range cells {
		if c[0] == '"' {
			from := r.text.Len()
			unquote(&r.text, c, 1)
			headers[0] = r.text.String()[from:]
			values[i], headers = &headers[0], headers[1:]
		}
	}
	return values
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
