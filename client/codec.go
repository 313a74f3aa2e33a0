package client

import (
	"io"
	"sync"

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
	// decoder returns a pooled decoder reading a scan response body.
	decoder(body io.Reader) entryDecoder
}

// entryDecoder reads one scan response stream.
type entryDecoder interface {
	// next returns the next entry, io.EOF at the stream's end, and an
	// error — never io.EOF — when the stream was cut before its end. The
	// slices are scratch, valid until the following call.
	next() (key, value []byte, err error)
	// release drops the body (and any buffer a huge entry grew) and
	// returns the decoder to its pool.
	release()
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

type binDecoder struct{ dec wire.StreamDecoder }

var binDecoders = sync.Pool{New: func() any { return new(binDecoder) }}

func (binCodec) decoder(body io.Reader) entryDecoder {
	d := binDecoders.Get().(*binDecoder)
	d.dec.Reset(body)
	return d
}

func (d *binDecoder) next() ([]byte, []byte, error) { return d.dec.Next() }

func (d *binDecoder) release() {
	d.dec.Reset(nil)
	binDecoders.Put(d)
}

// jsonCodec is the default: a batch body is a JSON array of api.BatchOp, a
// scan stream a JSON array of api.ScanEntry, both through internal/api's
// data-plane JSON codec.
type jsonCodec struct{}

func (jsonCodec) contentType() string { return "application/json" }

func (jsonCodec) appendBatch(dst []byte, ops []Op) []byte {
	dst = append(dst, '[')
	for i, op := range ops {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = api.AppendBatchOp(dst, string(op.Kind), op.Key, op.Value)
	}
	return append(dst, ']')
}

type jsonDecoder struct {
	dec api.JSONDecoder
	f   api.JSONFields
}

var jsonDecoders = sync.Pool{New: func() any { return new(jsonDecoder) }}

func (jsonCodec) decoder(body io.Reader) entryDecoder {
	d := jsonDecoders.Get().(*jsonDecoder)
	d.dec.Reset(body)
	return d
}

func (d *jsonDecoder) next() ([]byte, []byte, error) {
	if err := d.dec.Next(&d.f); err != nil {
		return nil, nil, err
	}
	return d.f.Key, d.f.Value, nil
}

func (d *jsonDecoder) release() {
	d.dec.Reset(nil)
	d.f = api.JSONFields{}
	jsonDecoders.Put(d)
}
