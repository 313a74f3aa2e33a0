package server

import (
	"net/http"
	"sync"
	"time"
)

// The service hot path avoids per-request allocation: every request is
// wrapped in a pooled timedWriter carrying its arrival time plus two
// reusable scratch buffers (request-body bytes and response encoding),
// per-route metrics are resolved once when the route is mounted, and
// JSON envelopes/scan entries are appended by hand (internal/api's
// data-plane JSON codec) instead of through encoding/json. Regression
// tests in alloc_test.go pin the resulting budgets.

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
