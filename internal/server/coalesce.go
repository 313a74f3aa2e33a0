package server

import "time"

// Cross-request write coalescing (WithWriteCoalescing).
//
// A write request — a single-op PUT/DELETE or a whole /v1/batch body — is
// by default its own group of one: one flight-RLock hold and one engine
// Apply, and so one WAL group commit, per request. With the option on, a
// collector goroutine forms larger groups: the first queued request opens
// a group, the group collects requests for up to the configured window
// (or until the op budget fills), and apply commits it as ONE engine
// batch under ONE lock hold — the cross-request analogue of the engine's
// write-group commit, amortizing lock traffic and fsync latency across
// connections.
//
// The option decides only when groups form. What a group means — ownership
// decided per request inside the lock, whole-request rejection, acks
// strictly after the engine commit, the fence guarantee — is apply's and
// commit's contract (data.go), the same for one request or sixty.

// coalescer carries the queue and the bounds of one server's write
// coalescing. maxOps bounds the total entries staged per group, not the
// request count, so batch bodies fill a group proportionally faster.
type coalescer struct {
	ch     chan *writeReq
	window time.Duration
	maxOps int
}

// startCoalescer resolves the configured bounds and launches the
// collector goroutine. The goroutine lives as long as the server (the
// server has no Close; one parked goroutine per coalescing server is the
// accepted cost).
func (s *server) startCoalescer() {
	maxOps := s.cfg.coalMaxOps
	if maxOps <= 0 {
		maxOps = 128
	}
	window := s.cfg.coalWindow
	if window < 0 {
		window = 0
	}
	// The queue holds four groups' worth of requests, so handlers rarely
	// block on the send while a group is being applied.
	s.coal = &coalescer{ch: make(chan *writeReq, 4*maxOps), window: window, maxOps: maxOps}
	s.coalGroups = s.reg.Counter("http_coalesce_groups_total",
		"Coalesced write groups applied.")
	s.coalOps = s.reg.Counter("http_coalesced_ops_total",
		"Write ops routed through the coalescer.")
	s.coalSize = s.reg.Histogram("http_coalesce_group_size",
		"Ops per coalesced write group.")
	go s.runCoalescer()
}

// runCoalescer is the group-forming loop: take one request, wait up to
// window for more (reusing one timer), top the group up with whatever is
// already queued, apply, and release the group's handlers. n tracks
// staged entries against maxOps.
func (s *server) runCoalescer() {
	c := s.coal
	group := make([]*writeReq, 0, c.maxOps)
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	for q := range c.ch {
		group = append(group[:0], q)
		n := len(q.kinds)
		if c.window > 0 {
			timer.Reset(c.window)
			fired := false
			for !fired && n < c.maxOps {
				select {
				case q2 := <-c.ch:
					group = append(group, q2)
					n += len(q2.kinds)
				case <-timer.C:
					fired = true
				}
			}
			if !fired && !timer.Stop() {
				<-timer.C
			}
		}
	drain:
		for n < c.maxOps {
			select {
			case q2 := <-c.ch:
				group = append(group, q2)
				n += len(q2.kinds)
			default:
				break drain
			}
		}
		staged := int64(s.apply(group))
		s.coalGroups.Inc()
		s.coalOps.Add(staged)
		s.coalSize.Observe(staged)
		for _, q := range group {
			q.done <- struct{}{}
		}
	}
}
