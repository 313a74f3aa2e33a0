package main

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// opHeader joins a RoundTrip span to the handler span it caused: the bench
// transport sets it, the bench middleware reads it.
const opHeader = "X-Bench-Op"

// opInfo identifies the request a worker is making; it rides the context
// the client passes down to its http.Client.
type opInfo struct {
	id      uint64
	worker  int
	sampled bool
}

type opKey struct{}

func withOp(ctx context.Context, info *opInfo) context.Context {
	return context.WithValue(ctx, opKey{}, info)
}

// encodeOp renders the header: the RoundTrip span's ID, the worker, and "s"
// when the request is one of those kept verbatim. strconv, not fmt: this runs
// once per traced request on each side.
func encodeOp(id uint64, info *opInfo) string {
	b := strconv.AppendUint(make([]byte, 0, 24), id, 10)
	b = append(b, '.', byte('0'+info.worker))
	if info.sampled {
		b = append(b, 's')
	}
	return string(b)
}

func decodeOp(op string) (id uint64, worker int, sampled, ok bool) {
	op, sampled = strings.CutSuffix(op, "s")
	idText, workerText, ok := strings.Cut(op, ".")
	if !ok || len(workerText) != 1 {
		return 0, 0, false, false
	}
	id, err := strconv.ParseUint(idText, 10, 64)
	return id, int(workerText[0] - '0'), sampled, err == nil
}

// The server routes the benchmark uses, as the handler sees them.
const (
	routeKV = iota
	routeScan
	routeBatch
	routeOther
	nRoutes
)

var routeNames = [nRoutes]string{"kv", "scan", "batch", "other"}

func routeOf(path string) int {
	switch {
	case strings.HasPrefix(path, "/v1/kv/"):
		return routeKV
	case path == "/v1/scan":
		return routeScan
	case path == "/v1/batch":
		return routeBatch
	}
	return routeOther
}

// httpHooks times the two boundaries a served request crosses that the
// worker cannot see: the client's http.RoundTripper and the server's
// http.Handler. Both pass straight through while the tracer is off.
type httpHooks struct {
	tr *tracer

	rtNanos atomic.Int64
	non2xx  atomic.Int64
	handler [nRoutes]hist
}

func newHTTPHooks(tr *tracer) *httpHooks { return &httpHooks{tr: tr} }

type hookTransport struct {
	h    *httpHooks
	base http.RoundTripper
}

func (h *httpHooks) transport(base http.RoundTripper) http.RoundTripper {
	return &hookTransport{h: h, base: base}
}

// RoundTrip spans from the call to the end of the response body, so a
// streamed scan's transfer counts as transport, not as client self time.
func (t *hookTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	info, _ := req.Context().Value(opKey{}).(*opInfo)
	if info == nil || !t.h.tr.on() {
		return t.base.RoundTrip(req)
	}
	tr := t.h.tr
	id := tr.newID()
	// A RoundTripper may not modify its request: send a shallow copy with
	// its own header map (req.Clone's deep copy costs a microsecond).
	sent := *req
	sent.Header = make(http.Header, len(req.Header)+1)
	for k, v := range req.Header {
		sent.Header[k] = v
	}
	sent.Header[opHeader] = []string{encodeOp(id, info)}
	start := time.Now()
	finish := func() {
		end := time.Now()
		t.h.rtNanos.Add(int64(end.Sub(start)))
		if info.sampled {
			tr.keep(span{ID: id, Parent: info.id, Layer: "client", Name: "roundtrip",
				Start: tr.since(start), End: tr.since(end), Worker: info.worker})
		}
	}
	resp, err := t.base.RoundTrip(&sent)
	if err != nil {
		finish()
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, finish: finish}
	return resp, nil
}

func (t *hookTransport) CloseIdleConnections() {
	if c, ok := t.base.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

// spanBody ends its span at the first of EOF, a read error or Close.
type spanBody struct {
	io.ReadCloser
	finish func()
	done   bool
}

func (b *spanBody) end() {
	if !b.done {
		b.done = true
		b.finish()
	}
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.end()
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.end()
	return b.ReadCloser.Close()
}

// statusWriter records the response status; Flush and Unwrap keep the
// server's streaming scans working through it.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (h *httpHooks) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op := r.Header.Get(opHeader)
		if op == "" || !h.tr.on() {
			next.ServeHTTP(w, r)
			return
		}
		parent, worker, sampled, ok := decodeOp(op)
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		route := routeOf(r.URL.Path)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r)
		end := time.Now()
		if sw.status/100 != 2 {
			h.non2xx.Add(1)
		}
		h.handler[route].observe(int64(end.Sub(start)))
		if sampled {
			h.tr.keep(span{ID: h.tr.newID(), Parent: parent, Layer: "server", Name: routeNames[route],
				Start: h.tr.since(start), End: h.tr.since(end), Worker: worker})
		}
	})
}
