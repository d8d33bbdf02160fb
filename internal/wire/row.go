package wire

import (
	"bytes"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// The row event is the only message whose count scales with the answer,
// so it alone has a hand-written codec; every other event is one
// encoding/json call per response. The line is
//
//	{"kind":"row","epoch":N,"values":["<iri>","\"literal\"",null]}
//
// in exactly that key order with no whitespace. The encoder escapes only
// what RFC 8259 requires; the decoder accepts every valid JSON string
// escape, so it also reads the lines an encoding/json server writes
// (reflected Event, HTML-escaped) as long as the keys come in this order.

var (
	rowOpen   = []byte(`{"kind":"row","epoch":`)
	rowValues = []byte(`,"values":`)
	rowClose  = []byte("]}")
	null      = []byte("null")
	comma     = []byte{','}
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
// to dst. The same array is the row's form inside the buffered shapes
// (QueryResponse.Rows, BatchItem.Rows).
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

// Values is a row held as decoded strings; it renders through the same
// escaping as every other RowAppender.
type Values []*string

// AppendRow implements RowAppender.
//
//dualsim:hotpath
func (v Values) AppendRow(dst []byte) []byte {
	dst = append(dst, '[')
	for i, s := range v {
		if i > 0 {
			dst = append(dst, ',')
		}
		if s == nil {
			dst = append(dst, "null"...)
			continue
		}
		dst = append(dst, '"')
		dst = AppendEscaped(dst, *s)
		dst = append(dst, '"')
	}
	return append(dst, ']')
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

// DecodeRowEvent decodes one line (with or without its newline) if it
// is a row event in the canonical shape. ok false means "not mine", not
// "malformed": headers, trailers, error events, other key orders,
// interior whitespace and broken lines all go to json.Unmarshal, which
// decodes or rejects them. Whenever ok is true the result equals what
// json.Unmarshal into an Event yields. The values share one backing
// string and do not alias line.
//
//dualsim:hotpath
func DecodeRowEvent(line []byte) (epoch uint64, values []*string, ok bool) {
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

	// Every value but the first follows a comma, so the comma count
	// bounds the width (commas inside strings only over-reserve) and
	// neither slice below is ever regrown — the pointers stay valid.
	width := bytes.Count(rest, comma) + 1
	values = make([]*string, 0, width)
	var strs []string
	var text strings.Builder
	text.Grow(len(rest))
	i = 1
	for rest[i] != ']' { // only an empty array skips the loop; it ends by break
		switch {
		case bytes.HasPrefix(rest[i:], null):
			values = append(values, nil)
			i += len(null)
		case rest[i] == '"':
			from := text.Len()
			if i = unquote(&text, rest, i+1); i < 0 {
				return 0, nil, false
			}
			if strs == nil {
				strs = make([]string, 0, width-len(values))
			}
			strs = append(strs, text.String()[from:])
			values = append(values, &strs[len(strs)-1])
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
	if !bytes.Equal(rest[i:], rowClose) {
		return 0, nil, false
	}
	return epoch, values, true
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
