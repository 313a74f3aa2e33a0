package server

import (
	"encoding/json"
	"net/http"
	"sync/atomic"

	"adcache/internal/api"
)

// DrainState is the shared flag between a process's shutdown path and
// its server's /v1/health readiness: the process flips it when graceful
// shutdown begins, and the health endpoint starts answering 503 so load
// balancers and the shard manager stop routing new work here while
// in-flight requests finish. Zero value is usable; methods are safe on a
// nil receiver (a server without one is simply never draining).
type DrainState struct {
	draining atomic.Bool
}

// StartDrain marks the node as draining. Idempotent.
func (d *DrainState) StartDrain() { d.draining.Store(true) }

// Draining reports whether drain has begun.
func (d *DrainState) Draining() bool { return d != nil && d.draining.Load() }

// WithDrainState wires a DrainState into /v1/health readiness; the
// owning process flips it on shutdown (see cmd/adcached).
func WithDrainState(ds *DrainState) Option { return func(c *config) { c.drain = ds } }

// handleHealth serves GET /v1/health.
//
// Liveness — `GET /v1/health?probe=live` — answers 200 whenever the
// process can serve HTTP at all, regardless of engine state: a deadlocked
// or crashed process fails it, a degraded one does not.
//
// Readiness — plain `GET /v1/health` — answers 200 only when the node
// should receive traffic: not draining for shutdown, and the engine
// error-handler not in read-only degraded mode. "retrying" (background
// errors under retry) stays ready: reads and writes still succeed while
// the engine works the problem. The body is the api.Health document in
// both modes, so a 503's cause is always one GET away.
//
// The route bypasses the data-plane concurrency limit (see route):
// an overloaded node must still answer probes, or overload would read as
// death and invite a restart stampede.
func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeErr(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, "health is GET-only")
		return
	}
	h := api.Health{
		Status:   "ok",
		BgState:  s.db.LSM().BgState(),
		Draining: s.cfg.drain.Draining(),
		Node:     s.cfg.nodeID,
		Epoch:    s.epoch(),
	}
	switch {
	case h.Draining:
		h.Status = "draining"
	case h.BgState == "read-only":
		h.Status = "degraded"
	}
	status := http.StatusOK
	if h.Status != "ok" && r.URL.Query().Get("probe") != "live" {
		status = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(h)
}
