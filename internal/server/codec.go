package server

import (
	"fmt"
	"io"

	"adcache/internal/api"
	"adcache/internal/api/wire"
)

// codec is a request's wire format, chosen once per request by codecFor:
// JSON by default, the binary framing of internal/api/wire for
// application/x-adcache-bin. It owns the package's only batch decoder and
// only entry-stream encoder; handlers never branch on the format. Both
// implementations are stateless (internal/api/wire and internal/api's JSON
// codec do the byte work), so choosing one allocates nothing.
type codec interface {
	// contentType labels a response stream written with this codec.
	contentType() string
	// each decodes a fully-buffered batch body, calling fn once per op in
	// body order (kind is wire.OpPut or wire.OpDelete; a delete's value is
	// nil) and stopping at fn's first error. key and value alias body, which
	// each may overwrite as scratch: they are valid until body's buffer is
	// reused. A malformed body is a plain error (BAD_BODY); an op the
	// format can express but the API rejects is a *reqError.
	each(body []byte, fn stageFunc) error
	// begin, entry and end append an entry stream to dst: begin once, entry
	// per key/value (n counts the entries already appended), end once. A
	// stream cut before end is detectably incomplete in both formats.
	begin(dst []byte) []byte
	entry(dst []byte, n int, key, value []byte) []byte
	end(dst []byte) []byte
}

// stageFunc receives one decoded batch op.
type stageFunc func(i int, kind byte, key, value []byte) error

// reqError is a request-shape violation with its own envelope code
// (BAD_KEY, BAD_OP); any other staging error is BAD_BODY. All are 400.
type reqError struct{ code, msg string }

func (e *reqError) Error() string { return e.msg }

// codecFor maps a Content-Type or Accept header value to the codec.
func codecFor(mime string) codec {
	if mime == wire.ContentType {
		return binCodec{}
	}
	return jsonCodec{}
}

// binCodec is the length-prefixed framing of internal/api/wire: batch
// bodies decode incrementally (an op is staged before the next is
// parsed) and zero-copy.
type binCodec struct{}

func (binCodec) contentType() string { return wire.ContentType }

func (binCodec) each(body []byte, fn stageFunc) error {
	var dec wire.BatchDecoder
	if err := dec.Init(body); err != nil {
		return err
	}
	for i := 0; ; i++ {
		kind, key, value, err := dec.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(i, kind, key, value); err != nil {
			return err
		}
	}
}

func (binCodec) begin(dst []byte) []byte { return wire.AppendStreamHeader(dst) }

func (binCodec) entry(dst []byte, _ int, key, value []byte) []byte {
	return wire.AppendEntry(dst, key, value)
}

func (binCodec) end(dst []byte) []byte { return wire.AppendStreamEnd(dst) }

// jsonCodec is the default format: a batch body is a JSON array of
// api.BatchOp parsed whole before any op is staged, an entry stream a JSON
// array of api.ScanEntry closed by "]\n".
type jsonCodec struct{}

func (jsonCodec) contentType() string { return "application/json" }

func (jsonCodec) each(body []byte, fn stageFunc) error {
	// The decoder decodes each string over its own encoding in body, so the
	// ops it yields alias body as the binary codec's do, and staging a JSON
	// op allocates nothing the binary path does not. The first 16 ops are
	// collected on the stack.
	var dec api.JSONDecoder
	dec.ResetBytes(body)
	var arr [16]api.JSONFields
	ops := arr[:0]
	for {
		var f api.JSONFields
		err := dec.Next(&f)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		ops = append(ops, f)
	}
	for i, o := range ops {
		var err error
		switch string(o.Op) {
		case "put":
			err = fn(i, wire.OpPut, o.Key, o.Value)
		case "delete":
			err = fn(i, wire.OpDelete, o.Key, nil)
		default:
			err = &reqError{api.CodeBadOp, fmt.Sprintf("op %d: unknown %q (want put|delete)", i, o.Op)}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (jsonCodec) begin(dst []byte) []byte { return append(dst, '[') }

func (jsonCodec) entry(dst []byte, n int, key, value []byte) []byte {
	if n > 0 {
		dst = append(dst, ',')
	}
	return api.AppendScanEntry(dst, key, value)
}

func (jsonCodec) end(dst []byte) []byte { return append(dst, ']', '\n') }
