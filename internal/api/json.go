package api

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"unicode/utf16"
	"unicode/utf8"
)

// This file is the data plane's JSON codec, shared by both ends: a /v1/batch
// body is a JSON array of BatchOp, a /v1/scan response a JSON array of
// ScanEntry. Encoders append by hand; JSONDecoder reads either array, from a
// whole body or from a stream, without encoding/json. encoding/json stays on
// the control plane (envelopes, the shard map, stats).
//
// The decoder accepts exactly: optional whitespace, then `null` or an array
// whose elements are `null` or objects, and whose object members have string
// or null values; then optional whitespace to the end of input. Members named
// "op", "key" and "value" set those fields (a null leaves the field as it
// was, a repeated member overwrites it); other members are ignored. Strings
// decode as encoding/json decodes them: escapes, surrogate pairs, a lone
// surrogate or an invalid UTF-8 byte as U+FFFD. Where encoding/json would
// accept more, the decoder rejects: a member value that is neither a string
// nor null, and a member name that equals "op", "key" or "value" only under
// case folding. So whatever the decoder accepts, encoding/json decodes into
// the same ops or entries.

const hexDigits = "0123456789abcdef"

// AppendJSONString appends s as a JSON string literal, escaping exactly what
// validity requires (quotes, backslashes, control bytes) and replacing
// invalid UTF-8 with U+FFFD, matching encoding/json minus its HTML escaping.
func AppendJSONString(dst, s []byte) []byte {
	dst = append(dst, '"')
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' {
				dst = append(dst, c)
			} else {
				dst = appendEscaped(dst, c)
			}
			i++
			continue
		}
		r, size := utf8.DecodeRune(s[i:])
		if r == utf8.RuneError && size == 1 {
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i++
			continue
		}
		dst = append(dst, s[i:i+size]...)
		i += size
	}
	return append(dst, '"')
}

// appendEscaped writes the escape sequence for one ASCII byte that cannot
// appear raw inside a JSON string.
func appendEscaped(dst []byte, c byte) []byte {
	switch c {
	case '"':
		return append(dst, '\\', '"')
	case '\\':
		return append(dst, '\\', '\\')
	case '\n':
		return append(dst, '\\', 'n')
	case '\r':
		return append(dst, '\\', 'r')
	case '\t':
		return append(dst, '\\', 't')
	default:
		return append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
	}
}

// AppendScanEntry appends one ScanEntry object.
func AppendScanEntry(dst, key, value []byte) []byte {
	dst = append(dst, `{"key":`...)
	dst = AppendJSONString(dst, key)
	dst = append(dst, `,"value":`...)
	dst = AppendJSONString(dst, value)
	return append(dst, '}')
}

// AppendBatchOp appends one BatchOp object; a delete carries no value.
func AppendBatchOp(dst []byte, op string, key, value []byte) []byte {
	dst = append(dst, `{"op":"`...)
	dst = append(dst, op...)
	dst = append(dst, `","key":`...)
	dst = AppendJSONString(dst, key)
	if op != "delete" {
		dst = append(dst, `,"value":`...)
		dst = AppendJSONString(dst, value)
	}
	return append(dst, '}')
}

// JSONFields is one decoded array element. A field is nil when its member
// is absent or null, and non-nil (possibly empty) when it is a string.
type JSONFields struct {
	Op, Key, Value []byte
}

// JSONError is input the decoder does not accept, at byte Offset.
type JSONError struct {
	Offset int64
	msg    string
	cause  error
}

func (e *JSONError) Error() string {
	return fmt.Sprintf("api: JSON at byte %d: %s", e.Offset, e.msg)
}

// Unwrap reports io.ErrUnexpectedEOF for input that ends mid-value.
func (e *JSONError) Unwrap() error { return e.cause }

// maxJSONBuffer bounds the stream buffer, which must hold one whole array
// element: a hostile stream cannot make the decoder allocate without end.
const maxJSONBuffer = 256 << 20

// jsonStreamBuffer is the first buffer of a streaming decoder.
const jsonStreamBuffer = 32 << 10

// errShort asks Next for more input; it never leaves the decoder.
var errShort = errors.New("api: short JSON buffer")

// JSONDecoder reads a data-plane JSON array one element at a time (see the
// file comment for what it accepts). It works in one of two modes:
//
//   - Reset reads a stream through its own buffer, which holds at least one
//     whole element; an element cut by the buffer's edge is parsed again
//     once more input has arrived. Fields are valid until the next call.
//   - ResetBytes reads a whole body and decodes each string over its own
//     encoding in the body, so fields stay valid as long as the body does
//     and later input is never touched. A string that needs no decoding is a
//     sub-slice of the body; escapes only shrink a string, and when U+FFFD
//     replacing an invalid byte would write past the bytes read so far, the
//     string moves to a fresh allocation instead.
//
// A zero JSONDecoder must be Reset before use.
type JSONDecoder struct {
	src     io.Reader // nil: buf holds the whole input
	buf     []byte    // input; buf[r:] is unread
	r       int
	off     int64 // input bytes dropped from the front of buf
	eof     bool  // buf holds everything src will give
	inPlace bool
	opened  bool   // the opening bracket is consumed
	err     error  // sticky
	scratch []byte // stream mode: the current element's decoded strings
}

// keepStreamBytes bounds what Reset keeps of buffers a huge element grew.
const keepStreamBytes = 1 << 20

// Reset points the decoder at a stream, reusing its buffers. Reset(nil)
// drops the stream, so a pooled decoder holds no body.
func (d *JSONDecoder) Reset(src io.Reader) {
	if d.inPlace || cap(d.buf) > keepStreamBytes {
		d.buf = nil // a body is not ours to reuse, nor a giant buffer ours to keep
	}
	if cap(d.scratch) > keepStreamBytes {
		d.scratch = nil
	}
	if d.buf == nil && src != nil {
		d.buf = make([]byte, 0, jsonStreamBuffer)
	}
	*d = JSONDecoder{src: src, buf: d.buf[:0], scratch: d.scratch[:0]}
}

// ResetBytes points the decoder at a whole body, which it decodes in place.
func (d *JSONDecoder) ResetBytes(body []byte) {
	*d = JSONDecoder{buf: body, eof: true, inPlace: true}
}

// Next decodes the next element into f. It returns io.EOF after the closing
// bracket and the whitespace after it, a *JSONError for input it does not
// accept (wrapping io.ErrUnexpectedEOF when the input ends first), and the
// stream's own error when a read fails. Errors are sticky.
func (d *JSONDecoder) Next(f *JSONFields) error {
	for d.err == nil {
		mark := d.r
		err := d.next(f)
		if err == errShort {
			d.r = mark
			err = d.fill()
			if err == nil {
				continue
			}
		}
		if err != nil {
			d.err = err
		}
		return err
	}
	return d.err
}

// next parses one step from d.r; it commits d.opened only on success, so an
// errShort can rewind to where it began.
func (d *JSONDecoder) next(f *JSONFields) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	if !d.opened {
		if c == 'n' {
			if err := d.null(); err != nil {
				return err
			}
			return d.tail()
		}
		if c != '[' {
			return d.syntax("want '[' or null to open the body")
		}
		d.r++
		if c, err = d.peek(); err != nil {
			return err
		}
	} else if c == ',' {
		d.r++
	} else if c != ']' {
		return d.syntax("want ',' or ']' after an element")
	}
	if c == ']' {
		d.r++
		return d.tail()
	}
	*f = JSONFields{}
	d.scratch = d.scratch[:0]
	if err := d.element(f); err != nil {
		return err
	}
	d.opened = true
	return nil
}

// tail consumes the whitespace after the top-level value, up to the end of
// the input.
func (d *JSONDecoder) tail() error {
	for {
		for ; d.r < len(d.buf); d.r++ {
			if !isSpace(d.buf[d.r]) {
				return d.syntax("data after the top-level value")
			}
		}
		if d.eof {
			return io.EOF
		}
		if err := d.fill(); err != nil {
			return err
		}
	}
}

// element parses null or one object into f.
func (d *JSONDecoder) element(f *JSONFields) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	if c == 'n' {
		return d.null()
	}
	if c != '{' {
		return d.syntax("an element is neither an object nor null")
	}
	d.r++
	if c, err = d.peek(); err != nil {
		return err
	}
	if c == '}' {
		d.r++
		return nil
	}
	for {
		if c != '"' {
			return d.syntax("want a member name")
		}
		name, err := d.str()
		if err != nil {
			return err
		}
		if c, err = d.peek(); err != nil {
			return err
		}
		if c != ':' {
			return d.syntax("want ':' after a member name")
		}
		d.r++
		if c, err = d.peek(); err != nil {
			return err
		}
		var v []byte
		switch c {
		case '"':
			if v, err = d.str(); err != nil {
				return err
			}
		case 'n':
			if err := d.null(); err != nil {
				return err
			}
		default:
			return d.syntax("a member value is neither a string nor null")
		}
		var field *[]byte
		switch string(name) {
		case "op":
			field = &f.Op
		case "key":
			field = &f.Key
		case "value":
			field = &f.Value
		default:
			if bytes.EqualFold(name, []byte("op")) || bytes.EqualFold(name, []byte("key")) ||
				bytes.EqualFold(name, []byte("value")) {
				return d.syntax(fmt.Sprintf("member %q differs from op, key or value only in case", name))
			}
		}
		if field != nil && v != nil {
			*field = v
		}
		if c, err = d.peek(); err != nil {
			return err
		}
		d.r++
		switch c {
		case '}':
			return nil
		case ',':
			if c, err = d.peek(); err != nil {
				return err
			}
		default:
			d.r--
			return d.syntax("want ',' or '}' after a member")
		}
	}
}

// null consumes the literal null at d.r.
func (d *JSONDecoder) null() error {
	if len(d.buf)-d.r < 4 {
		if !bytes.HasPrefix([]byte("null"), d.buf[d.r:]) {
			return d.syntax("invalid literal")
		}
		return d.short()
	}
	if string(d.buf[d.r:d.r+4]) != "null" {
		return d.syntax("invalid literal")
	}
	d.r += 4
	return nil
}

// str decodes the string whose opening quote is at d.r and moves past its
// closing quote. A string with nothing to decode is a sub-slice of buf.
func (d *JSONDecoder) str() ([]byte, error) {
	buf := d.buf
	i := d.r + 1
	j := i
	for j < len(buf) {
		c := buf[j]
		if c == '"' {
			d.r = j + 1
			return buf[i:j:j], nil
		}
		if c == '\\' || c < 0x20 {
			break
		}
		if c < utf8.RuneSelf {
			j++
			continue
		}
		if !utf8.FullRune(buf[j:]) && !d.eof {
			return nil, errShort
		}
		if r, n := utf8.DecodeRune(buf[j:]); r != utf8.RuneError || n > 1 {
			j += n
			continue
		}
		break
	}
	// Decode from the first byte that needs it. In place, dst starts as the
	// plain prefix where it lies and grows over bytes already read; in stream
	// mode the string is copied into scratch.
	var dst []byte
	start, alias := 0, d.inPlace
	if alias {
		dst = buf[i:j]
	} else {
		start = len(d.scratch)
		dst = append(d.scratch, buf[i:j]...)
	}
	for {
		if j >= len(buf) {
			return nil, d.short()
		}
		c := buf[j]
		switch {
		case c == '"':
			d.r = j + 1
			if !d.inPlace {
				d.scratch = dst
			}
			s := dst[start:]
			return s[:len(s):len(s)], nil
		case c == '\\':
			if j+1 >= len(buf) {
				return nil, d.short()
			}
			e := buf[j+1]
			j += 2
			switch e {
			case '"', '\\', '/':
				dst = append(dst, e)
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				if len(buf)-j < 4 {
					return nil, d.short()
				}
				rr := hex4(buf[j : j+4])
				if rr < 0 {
					d.r = j
					return nil, d.syntax("invalid \\u escape")
				}
				j += 4
				if utf16.IsSurrogate(rr) {
					// The pair's second half, if any, must be in view.
					if len(buf)-j < 6 && !d.eof && bytes.HasPrefix([]byte(`\u`), buf[j:min(j+2, len(buf))]) {
						return nil, errShort
					}
					rr1 := rune(-1)
					if len(buf)-j >= 6 && buf[j] == '\\' && buf[j+1] == 'u' {
						rr1 = hex4(buf[j+2 : j+6])
					}
					if pair := utf16.DecodeRune(rr, rr1); pair != utf8.RuneError {
						rr = pair
						j += 6
					} else {
						rr = utf8.RuneError
					}
				}
				dst = utf8.AppendRune(dst, rr)
			default:
				d.r = j - 1
				return nil, d.syntax("invalid escape")
			}
		case c < 0x20:
			d.r = j
			return nil, d.syntax("control byte in a string")
		case c < utf8.RuneSelf:
			k := j + 1
			for k < len(buf) && buf[k] >= 0x20 && buf[k] < utf8.RuneSelf && buf[k] != '"' && buf[k] != '\\' {
				k++
			}
			dst = append(dst, buf[j:k]...)
			j = k
		default:
			if !utf8.FullRune(buf[j:]) && !d.eof {
				return nil, errShort
			}
			r, n := utf8.DecodeRune(buf[j:])
			if r != utf8.RuneError || n > 1 {
				dst = append(dst, buf[j:j+n]...)
				j += n
				continue
			}
			j++
			// Three bytes for one: in place, they must not pass the
			// bytes read, or they would overwrite unread input.
			if alias && i+len(dst)+3 > j {
				dst, alias = dst[:len(dst):len(dst)], false
			}
			dst = append(dst, "\uFFFD"...)
		}
	}
}

// hex4 parses four hex digits, or returns -1.
func hex4(b []byte) rune {
	var r rune
	for _, c := range b {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// peek skips whitespace and returns the byte at d.r.
func (d *JSONDecoder) peek() (byte, error) {
	for ; d.r < len(d.buf); d.r++ {
		if c := d.buf[d.r]; !isSpace(c) {
			return c, nil
		}
	}
	return 0, d.short()
}

func isSpace(c byte) bool { return c == ' ' || c == '\n' || c == '\r' || c == '\t' }

// short reports running out of buffered input: more may come in stream
// mode, and at the end of input the value is cut.
func (d *JSONDecoder) short() error {
	if !d.eof {
		return errShort
	}
	return &JSONError{Offset: d.off + int64(len(d.buf)), msg: "input ends mid-value", cause: io.ErrUnexpectedEOF}
}

// syntax reports input the decoder does not accept at d.r.
func (d *JSONDecoder) syntax(msg string) error {
	return &JSONError{Offset: d.off + int64(d.r), msg: msg}
}

// fill moves buf[r:] — the element being parsed, when one was cut — to
// the front of the buffer and reads at least as much again after it, so an
// element cut many times is parsed again at most about twice its length in
// all. The buffer grows when it cannot hold that much.
func (d *JSONDecoder) fill() error {
	if d.src == nil {
		return &JSONError{Offset: d.off + int64(d.r), msg: "no input: the decoder was not Reset"}
	}
	n := copy(d.buf[:cap(d.buf)], d.buf[d.r:])
	d.off += int64(d.r)
	d.buf, d.r = d.buf[:n], 0
	want := n + max(n, 1)
	if want > cap(d.buf) {
		if want > maxJSONBuffer {
			return &JSONError{Offset: d.off, msg: "an element exceeds the decoder's buffer bound"}
		}
		d.buf = append(make([]byte, 0, max(want, min(2*cap(d.buf), maxJSONBuffer))), d.buf...)
	}
	for len(d.buf) < want {
		m, err := d.src.Read(d.buf[len(d.buf):cap(d.buf)])
		d.buf = d.buf[:len(d.buf)+m]
		if err == io.EOF {
			d.eof = true
			return nil
		}
		if err != nil {
			return err
		}
	}
	return nil
}
