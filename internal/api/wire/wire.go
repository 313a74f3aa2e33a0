// Package wire implements the length-prefixed binary codec behind the
// /v1 data plane's application/x-adcache-bin content type — the fast
// alternative to the JSON wire format (which remains the default; see
// API.md § "Binary wire codec").
//
// Two framings share the same primitives:
//
//   - A batch body carries a version byte, a uvarint op count, then that
//     many ops: [kind:1][klen uvarint][key]([vlen uvarint][value] for
//     puts). It is decoded from a fully-buffered request body, so every
//     decoded key/value is a zero-copy sub-slice of the body.
//
//   - An entry stream (scan responses) carries a version byte then tagged
//     frames: 0x01 [klen uvarint][key][vlen uvarint][value] per entry and
//     a 0x00 terminator. The terminator is load-bearing: a stream that
//     ends without it was truncated mid-flight (the server hit an engine
//     error after committing to a 200), and the decoder reports
//     ErrTruncated instead of silently returning a prefix.
//
// Keys and values are raw bytes — no base64, no UTF-8 assumption, no
// per-op string conversion anywhere on the path. Encoders append into
// caller-supplied buffers (see GetBuf/PutBuf for the shared pool);
// decoders never allocate beyond their reusable scratch.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// ContentType negotiates the binary codec: a /v1/batch request with this
// Content-Type carries a binary batch body, and a /v1/scan request with
// this Accept value receives a binary entry stream.
const ContentType = "application/x-adcache-bin"

// Version is the codec version carried as the first byte of every batch
// body and entry stream. Decoders reject other versions, so the framing
// can evolve without silent misparses.
const Version = 1

// Op kinds inside a batch.
const (
	// OpPut writes key=value.
	OpPut byte = 0x01
	// OpDelete removes key (no value frame follows).
	OpDelete byte = 0x02
)

// Entry-stream frame tags.
const (
	tagEnd   byte = 0x00
	tagEntry byte = 0x01
)

// MaxEntryBytes bounds a single decoded key or value (64 MiB, matching
// the server's default body cap). It exists so a corrupt or hostile
// length prefix cannot make a decoder allocate unbounded memory.
const MaxEntryBytes = 64 << 20

// Codec errors. Decoders wrap them with position context; use errors.Is.
var (
	// ErrVersion: the first byte is not a supported codec version.
	ErrVersion = errors.New("wire: unsupported codec version")
	// ErrCorrupt: framing is malformed (bad tag, bad kind, overlong
	// varint, or a length prefix past the buffer end).
	ErrCorrupt = errors.New("wire: corrupt framing")
	// ErrTruncated: an entry stream ended without its terminator frame —
	// the producer died mid-stream and the prefix must not be trusted as
	// the complete result.
	ErrTruncated = errors.New("wire: stream truncated before end frame")
	// ErrTooLarge: a length prefix exceeds MaxEntryBytes.
	ErrTooLarge = errors.New("wire: entry exceeds size bound")
)

// --- Pooled encode buffers ---

// bufPool recycles encode buffers across requests. Buffers that grew
// beyond keepBufBytes are dropped on Put so one giant scan cannot pin
// memory forever.
const keepBufBytes = 1 << 20

var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// GetBuf returns a pooled byte slice of length zero. Pass it back with
// PutBuf when the encoded frame has been flushed.
func GetBuf() *[]byte { return bufPool.Get().(*[]byte) }

// PutBuf recycles a buffer obtained from GetBuf.
func PutBuf(b *[]byte) {
	if cap(*b) > keepBufBytes {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// --- Batch encoding ---

// AppendBatchHeader starts a binary batch body for n ops.
func AppendBatchHeader(dst []byte, n int) []byte {
	dst = append(dst, Version)
	return binary.AppendUvarint(dst, uint64(n))
}

// AppendPut appends one put op.
func AppendPut(dst, key, value []byte) []byte {
	dst = append(dst, OpPut)
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	dst = binary.AppendUvarint(dst, uint64(len(value)))
	return append(dst, value...)
}

// AppendDelete appends one delete op.
func AppendDelete(dst, key []byte) []byte {
	dst = append(dst, OpDelete)
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	return append(dst, key...)
}

// BatchDecoder iterates a fully-buffered binary batch body. Decoded keys
// and values alias the input buffer — valid as long as the buffer is.
type BatchDecoder struct {
	buf  []byte
	rest []byte
	n    int // ops remaining
}

// Init parses the header and primes the decoder. The decoder retains buf.
func (d *BatchDecoder) Init(buf []byte) error {
	d.buf, d.rest, d.n = buf, nil, 0
	if len(buf) == 0 {
		return fmt.Errorf("%w: empty body", ErrCorrupt)
	}
	if buf[0] != Version {
		return fmt.Errorf("%w: got %d, want %d", ErrVersion, buf[0], Version)
	}
	n, sz := binary.Uvarint(buf[1:])
	if sz <= 0 {
		return fmt.Errorf("%w: bad op count", ErrCorrupt)
	}
	// Every op costs at least 2 bytes on the wire, so a count beyond
	// len(buf)/2 is provably a lie — reject before any caller trusts it
	// as an allocation hint.
	if n > uint64(len(buf)/2) {
		return fmt.Errorf("%w: op count %d exceeds body", ErrCorrupt, n)
	}
	d.rest = buf[1+sz:]
	d.n = int(n)
	return nil
}

// Remaining reports how many ops have not been decoded yet.
func (d *BatchDecoder) Remaining() int { return d.n }

// Next decodes the next op. It returns io.EOF after the declared op count
// has been consumed (trailing bytes beyond it are ErrCorrupt).
func (d *BatchDecoder) Next() (kind byte, key, value []byte, err error) {
	if d.n == 0 {
		if len(d.rest) != 0 {
			return 0, nil, nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.rest))
		}
		return 0, nil, nil, io.EOF
	}
	d.n--
	if len(d.rest) == 0 {
		return 0, nil, nil, fmt.Errorf("%w: body ends before declared ops", ErrCorrupt)
	}
	kind, d.rest = d.rest[0], d.rest[1:]
	if kind != OpPut && kind != OpDelete {
		return 0, nil, nil, fmt.Errorf("%w: unknown op kind %#x", ErrCorrupt, kind)
	}
	if key, err = d.field(); err != nil {
		return 0, nil, nil, err
	}
	if kind == OpPut {
		if value, err = d.field(); err != nil {
			return 0, nil, nil, err
		}
	}
	return kind, key, value, nil
}

// field slices one uvarint-prefixed field out of the remaining body.
func (d *BatchDecoder) field() ([]byte, error) {
	n, sz := binary.Uvarint(d.rest)
	if sz <= 0 {
		return nil, fmt.Errorf("%w: bad length prefix", ErrCorrupt)
	}
	if n > MaxEntryBytes {
		return nil, fmt.Errorf("%w: %d bytes", ErrTooLarge, n)
	}
	if uint64(len(d.rest)-sz) < n {
		return nil, fmt.Errorf("%w: length %d past body end", ErrCorrupt, n)
	}
	f := d.rest[sz : sz+int(n)]
	d.rest = d.rest[sz+int(n):]
	return f, nil
}

// --- Entry streams ---

// AppendStreamHeader starts an entry stream.
func AppendStreamHeader(dst []byte) []byte { return append(dst, Version) }

// AppendEntry appends one key/value entry frame.
func AppendEntry(dst, key, value []byte) []byte {
	dst = append(dst, tagEntry)
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	dst = binary.AppendUvarint(dst, uint64(len(value)))
	return append(dst, value...)
}

// AppendStreamEnd appends the terminator frame that marks the stream
// complete. A consumer that never sees it must treat the stream as
// truncated.
func AppendStreamEnd(dst []byte) []byte { return append(dst, tagEnd) }

// StreamDecoder incrementally decodes an entry stream from a reader —
// the consuming half of a streaming scan: entries become available as
// chunks arrive, without buffering the whole response. Key/value slices
// returned by Next are reused scratch, valid until the following Next.
type StreamDecoder struct {
	br      *bufio.Reader
	started bool
	key     []byte
	value   []byte
}

// Reset points the decoder at a new stream, reusing its buffers. Reset(nil)
// drops the stream and any scratch a huge entry grew past 1 MiB, so a
// pooled decoder pins neither a body nor a giant buffer.
func (d *StreamDecoder) Reset(r io.Reader) {
	if d.br == nil {
		d.br = bufio.NewReaderSize(r, 32<<10)
	} else {
		d.br.Reset(r)
	}
	d.started = false
	if r == nil {
		if cap(d.key) > keepBufBytes {
			d.key = nil
		}
		if cap(d.value) > keepBufBytes {
			d.value = nil
		}
	}
}

// Next decodes the next entry. It returns io.EOF at the terminator frame
// and ErrTruncated if the underlying stream ends anywhere else.
func (d *StreamDecoder) Next() (key, value []byte, err error) {
	if d.br == nil {
		return nil, nil, fmt.Errorf("%w: decoder not Reset", ErrCorrupt)
	}
	if !d.started {
		v, err := d.br.ReadByte()
		if err != nil {
			return nil, nil, truncated(err)
		}
		if v != Version {
			return nil, nil, fmt.Errorf("%w: got %d, want %d", ErrVersion, v, Version)
		}
		d.started = true
	}
	tag, err := d.br.ReadByte()
	if err != nil {
		return nil, nil, truncated(err)
	}
	switch tag {
	case tagEnd:
		return nil, nil, io.EOF
	case tagEntry:
		if d.key, err = d.readField(d.key); err != nil {
			return nil, nil, err
		}
		if d.value, err = d.readField(d.value); err != nil {
			return nil, nil, err
		}
		return d.key, d.value, nil
	default:
		return nil, nil, fmt.Errorf("%w: unknown frame tag %#x", ErrCorrupt, tag)
	}
}

// readField reads one uvarint-prefixed field into scratch (grown as
// needed and reused across calls).
func (d *StreamDecoder) readField(scratch []byte) ([]byte, error) {
	n, err := binary.ReadUvarint(d.br)
	if err != nil {
		return scratch, truncated(err)
	}
	if n > MaxEntryBytes {
		return scratch, fmt.Errorf("%w: %d bytes", ErrTooLarge, n)
	}
	if uint64(cap(scratch)) < n {
		scratch = make([]byte, n)
	}
	scratch = scratch[:n]
	if _, err := io.ReadFull(d.br, scratch); err != nil {
		return scratch, truncated(err)
	}
	return scratch, nil
}

// truncated classifies reader errors: an EOF anywhere before the end
// frame is a truncation, everything else passes through.
func truncated(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return ErrTruncated
	}
	return err
}
