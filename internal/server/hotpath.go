package server

import (
	"net/http"
	"sync"
	"time"
	"unicode/utf8"
)

// The service hot path avoids per-request allocation: every request is
// wrapped in a pooled timedWriter carrying its arrival time plus two
// reusable scratch buffers (request-body bytes and response encoding),
// per-route metrics are resolved once when the route is mounted, and
// JSON envelopes/scan entries are appended by hand instead of through
// encoding/json. Regression tests in alloc_test.go pin the resulting
// budgets.

// keepScratchBytes bounds what a pooled scratch buffer may retain: one
// giant body or scan response must not pin megabytes in the pool.
const keepScratchBytes = 1 << 20

// scanFlushBytes is the streaming-scan chunk size: the response buffer is
// written (and flushed) every time it crosses this mark, so a large scan
// reaches the client incrementally instead of materializing server-side.
const scanFlushBytes = 32 << 10

// timedWriter wraps every request's ResponseWriter with its arrival time
// (taken before the concurrency-limit wait, so per-shard histograms see
// queueing) and the request's reusable scratch buffers.
type timedWriter struct {
	http.ResponseWriter
	start time.Time
	body  []byte // request-body scratch (readBody)
	out   []byte // response-encoding scratch (writeErr, scans)
}

// Flush forwards to the underlying writer so streaming scans can push
// chunks through the wrapper.
func (t *timedWriter) Flush() {
	if f, ok := t.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the underlying writer to http.ResponseController.
func (t *timedWriter) Unwrap() http.ResponseWriter { return t.ResponseWriter }

var twPool = sync.Pool{New: func() any { return new(timedWriter) }}

// writerOf returns the request's timedWriter: route wraps every mounted
// handler, so a handler's ResponseWriter always is one.
func writerOf(w http.ResponseWriter) *timedWriter { return w.(*timedWriter) }

const hexDigits = "0123456789abcdef"

// appendJSONBytes appends s as a JSON string literal, escaping exactly
// what validity requires (quotes, backslashes, control bytes) and
// replacing invalid UTF-8 with U+FFFD, matching encoding/json semantics
// minus its HTML escaping.
func appendJSONBytes(dst []byte, s []byte) []byte {
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
