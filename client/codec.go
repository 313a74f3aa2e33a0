package client

import (
	"bytes"
	"encoding/json"
	"io"

	"adcache/internal/api"
	"adcache/internal/api/wire"
)

// codec is the client's format for the bulk data plane, chosen once in New:
// JSON by default, the length-prefixed framing of internal/api/wire with
// WithBinary. It encodes batch bodies and decodes scan streams, and its
// content type labels the one and asks for the other; no request path
// branches on the format. Single-key requests carry raw bytes in both.
type codec interface {
	contentType() string
	// appendBatch appends ops, encoded as a /v1/batch body, to dst. Every
	// op's Kind is OpPut or OpDelete (BatchCtx checks before encoding).
	appendBatch(dst []byte, ops []Op) []byte
	// entries returns the pull function of a scan response body: a fresh
	// key and value per call, io.EOF at the stream's end, and an error —
	// never io.EOF — when the stream was cut before its end.
	entries(body io.Reader) func() (key, value []byte, err error)
}

// binCodec is the binary framing: values round-trip as raw bytes.
type binCodec struct{}

func (binCodec) contentType() string { return wire.ContentType }

func (binCodec) appendBatch(dst []byte, ops []Op) []byte {
	dst = wire.AppendBatchHeader(dst, len(ops))
	for _, op := range ops {
		if op.Kind == OpDelete {
			dst = wire.AppendDelete(dst, op.Key)
		} else {
			dst = wire.AppendPut(dst, op.Key, op.Value)
		}
	}
	return dst
}

func (binCodec) entries(body io.Reader) func() ([]byte, []byte, error) {
	// The decoder's slices are scratch reused by the next frame, so entries
	// are copied out before they are handed upward. Copies are carved from a
	// chunked arena — two allocations per entry would make the scan hot path
	// GC-bound.
	dec := &wire.StreamDecoder{}
	dec.Reset(body)
	var arena []byte
	carve := func(b []byte) []byte {
		if len(b) > len(arena) {
			arena = make([]byte, max(len(b), 64<<10))
		}
		out := arena[:len(b):len(b)]
		arena = arena[len(b):]
		copy(out, b)
		return out
	}
	return func() ([]byte, []byte, error) {
		k, v, err := dec.Next()
		if err != nil {
			return nil, nil, err
		}
		return carve(k), carve(v), nil
	}
}

// jsonCodec is the default: a batch body is a JSON array of api.BatchOp, a
// scan stream a JSON array of api.ScanEntry decoded element at a time.
type jsonCodec struct{}

func (jsonCodec) contentType() string { return "application/json" }

func (jsonCodec) appendBatch(dst []byte, ops []Op) []byte {
	jops := make([]api.BatchOp, len(ops))
	for i, op := range ops {
		jops[i] = api.BatchOp{Op: string(op.Kind), Key: string(op.Key), Value: string(op.Value)}
	}
	buf := bytes.NewBuffer(dst)
	json.NewEncoder(buf).Encode(jops) // a slice of string-only structs always encodes
	return buf.Bytes()
}

func (jsonCodec) entries(body io.Reader) func() ([]byte, []byte, error) {
	dec := json.NewDecoder(body)
	opened := false
	return func() ([]byte, []byte, error) {
		if !opened {
			if _, err := dec.Token(); err != nil { // opening [
				return nil, nil, unexpectedEOF(err)
			}
			opened = true
		}
		if !dec.More() {
			// The closing ] ends the stream. A body that ends first is a
			// stream the server cut (it signals a failure after the first
			// flush by leaving the terminator off), not a short result.
			if _, err := dec.Token(); err != nil {
				return nil, nil, unexpectedEOF(err)
			}
			return nil, nil, io.EOF
		}
		var e api.ScanEntry
		if err := dec.Decode(&e); err != nil {
			return nil, nil, unexpectedEOF(err)
		}
		return []byte(e.Key), []byte(e.Value), nil
	}
}

// unexpectedEOF turns the decoder's io.EOF — the body ended — into
// io.ErrUnexpectedEOF: inside a JSON array, running out of input is a cut.
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
