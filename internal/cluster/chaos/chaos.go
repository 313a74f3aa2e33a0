// Package chaos is the cluster's deterministic network-fault injector —
// the network analogue of vfs.CrashFS/FaultFS. Where the storage harness
// kills a node's disk at a chosen write, this package kills, slows, and
// partitions the *wire* between nodes at chosen moments, so the sharded
// service's consistency contract (no acked write is ever lost) can be
// swept under adversarial network conditions exactly as the single-node
// durability contract is swept under crash points.
//
// Two injection surfaces compose:
//
//   - Transport wraps an http.RoundTripper (the client's, or the shard
//     manager's) and consults a shared fault Table keyed by destination
//     address before and after each round trip. It injects full and
//     one-way partitions (the request never leaves), added latency with
//     seeded jitter, connection resets before the request is sent
//     (request lost, server never saw it), and dropped responses after
//     the server committed (the ack is lost but the write happened — the
//     fault that distinguishes at-most-once from at-least-once).
//
//   - Listener wraps a node's net.Listener and models node kill/restart:
//     while killed, accepted connections are closed immediately —
//     connection-refused from the caller's point of view — without
//     tearing down the HTTP server or the DB underneath, so a "restart"
//     is instant and the node returns with its data intact. (Process
//     crash + recovery is the storage harness's job; this layer models
//     the network symptom.)
//
// Every probabilistic decision draws from one seeded PRNG guarded by the
// Table's mutex, so a given seed and request order replays the same fault
// sequence — chaos runs are debuggable, not flaky.
package chaos

import (
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"
)

// Rule is the fault configuration for traffic to one destination address
// (or, via Table.SetPair, one src→dst direction). The zero Rule injects
// nothing. Faults are applied in order: partition, then latency, then
// reset/drop — a partitioned destination never sees latency.
type Rule struct {
	// Partition drops every request before it is sent: the caller sees a
	// connection error immediately and the destination never sees the
	// request.
	Partition bool
	// Latency delays every request by Latency plus a uniform random
	// extra in [0, Jitter) before it is sent.
	Latency time.Duration
	// Jitter is the upper bound of per-request extra delay.
	Jitter time.Duration
	// SlowProb applies Latency/Jitter only to this fraction of requests
	// (0 or 1 means every request) — the brownout model: a node whose
	// p99 collapses while its p50 stays healthy.
	SlowProb float64
	// ResetProb is the probability a request is dropped *before* the
	// destination sees it (connection reset mid-send): the operation
	// did not happen.
	ResetProb float64
	// DropResponseProb is the probability the *response* is dropped
	// after the destination processed the request: for a write, the
	// server committed but the ack is lost. The caller cannot
	// distinguish this from ResetProb — that asymmetry is the point.
	DropResponseProb float64
}

// active reports whether the rule injects anything at all.
func (r Rule) active() bool {
	return r.Partition || r.Latency > 0 || r.Jitter > 0 || r.ResetProb > 0 || r.DropResponseProb > 0
}

// Table is the shared, mutable fault configuration: rules per destination
// address and per (src, dst) pair, plus the seeded PRNG every random
// decision draws from. One Table is typically shared by every Transport
// in a test so a scripted scenario flips faults for the whole fleet at
// once. Safe for concurrent use.
type Table struct {
	mu     sync.Mutex
	rng    *rand.Rand
	byDst  map[string]Rule
	byPair map[pairKey]Rule
}

type pairKey struct{ src, dst string }

// NewTable returns an empty fault table whose random decisions are driven
// by seed.
func NewTable(seed int64) *Table {
	return &Table{
		rng:    rand.New(rand.NewSource(seed)),
		byDst:  map[string]Rule{},
		byPair: map[pairKey]Rule{},
	}
}

// Set installs the rule for all traffic to dst (any source). A zero Rule
// clears it.
func (t *Table) Set(dst string, r Rule) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if r.active() {
		t.byDst[dst] = r
	} else {
		delete(t.byDst, dst)
	}
}

// SetPair installs the rule for traffic from src to dst only — the
// one-way partition primitive. Pair rules take precedence over Set rules
// for matching sources.
func (t *Table) SetPair(src, dst string, r Rule) {
	t.mu.Lock()
	defer t.mu.Unlock()
	k := pairKey{src, dst}
	if r.active() {
		t.byPair[k] = r
	} else {
		delete(t.byPair, k)
	}
}

// Heal removes every rule — the network is whole again.
func (t *Table) Heal() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.byDst = map[string]Rule{}
	t.byPair = map[pairKey]Rule{}
}

// decision is one request's resolved fate, drawn under the table lock so
// concurrent requests consume the seeded stream in arrival order.
type decision struct {
	partition bool
	delay     time.Duration
	reset     bool
	dropResp  bool
}

// decide resolves the fault decision for one src→dst request.
func (t *Table) decide(src, dst string) decision {
	t.mu.Lock()
	defer t.mu.Unlock()
	r, ok := t.byPair[pairKey{src, dst}]
	if !ok {
		r, ok = t.byDst[dst]
	}
	if !ok || !r.active() {
		return decision{}
	}
	var d decision
	if r.Partition {
		d.partition = true
		return d
	}
	slow := true
	if r.SlowProb > 0 && r.SlowProb < 1 {
		slow = t.rng.Float64() < r.SlowProb
	}
	if slow {
		d.delay = r.Latency
		if r.Jitter > 0 {
			d.delay += time.Duration(t.rng.Int63n(int64(r.Jitter)))
		}
	}
	if r.ResetProb > 0 && t.rng.Float64() < r.ResetProb {
		d.reset = true
		return d
	}
	if r.DropResponseProb > 0 && t.rng.Float64() < r.DropResponseProb {
		d.dropResp = true
	}
	return d
}

// ErrInjected is the error type every injected network failure carries,
// so tests can tell injected faults from real ones.
type ErrInjected struct {
	Kind string // "partition", "reset", "drop-response"
	Dst  string
}

func (e *ErrInjected) Error() string {
	return fmt.Sprintf("chaos: injected %s to %s", e.Kind, e.Dst)
}

// Timeout marks injected faults as retryable to net-aware callers
// (net.Error's Timeout contract): a partitioned or reset destination
// looks like any other unreachable node.
func (e *ErrInjected) Timeout() bool   { return true }
func (e *ErrInjected) Temporary() bool { return true }

// Transport is the fault-injecting http.RoundTripper. It consults the
// Table for every request (keyed by the request URL's host) and otherwise
// delegates to Base.
type Transport struct {
	// Base is the real transport (http.DefaultTransport when nil).
	Base http.RoundTripper
	// Table is the shared fault configuration (no faults when nil).
	Table *Table
	// Source names this transport's end for pair rules ("" matches only
	// Set rules).
	Source string
}

// RoundTrip applies the destination's fault rule around one request.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	base := t.Base
	if base == nil {
		base = http.DefaultTransport
	}
	if t.Table == nil {
		return base.RoundTrip(req)
	}
	dst := req.URL.Host
	d := t.Table.decide(t.Source, dst)
	if d.partition {
		return nil, &ErrInjected{Kind: "partition", Dst: dst}
	}
	if d.delay > 0 {
		timer := time.NewTimer(d.delay)
		select {
		case <-req.Context().Done():
			timer.Stop()
			return nil, req.Context().Err()
		case <-timer.C:
		}
	}
	if d.reset {
		// Reset before send: the server never saw the request.
		return nil, &ErrInjected{Kind: "reset", Dst: dst}
	}
	resp, err := base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if d.dropResp {
		// The server processed the request — for a mutation, it is
		// committed — but the ack never arrives.
		resp.Body.Close()
		return nil, &ErrInjected{Kind: "drop-response", Dst: dst}
	}
	return resp, nil
}

// Listener wraps a node's net.Listener with a kill switch: Kill refuses
// all new connections AND severs every established one (pooled
// keep-alive connections must die too, or a "killed" node would keep
// serving clients that dialed earlier), so callers see connection resets
// — the node is "down" — while the HTTP server and DB behind it stay
// intact for an instant "restart" with data intact.
type Listener struct {
	net.Listener
	mu     sync.Mutex
	killed bool
	conns  map[net.Conn]struct{}
}

// NewListener wraps ln.
func NewListener(ln net.Listener) *Listener {
	return &Listener{Listener: ln, conns: map[net.Conn]struct{}{}}
}

// Kill makes the node refuse new connections and closes every live one.
func (l *Listener) Kill() {
	l.mu.Lock()
	l.killed = true
	for c := range l.conns {
		c.Close()
	}
	l.conns = map[net.Conn]struct{}{}
	l.mu.Unlock()
}

// Restart lets the node accept connections again.
func (l *Listener) Restart() {
	l.mu.Lock()
	l.killed = false
	l.mu.Unlock()
}

// Accept closes incoming connections while killed (callers see an
// immediate reset) and otherwise passes them through, tracked so Kill
// can sever them later.
func (l *Listener) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		l.mu.Lock()
		if l.killed {
			l.mu.Unlock()
			c.Close()
			continue
		}
		tc := &trackedConn{Conn: c, l: l}
		l.conns[c] = struct{}{}
		l.mu.Unlock()
		return tc, nil
	}
}

// trackedConn untracks itself on Close so the conn set stays bounded.
type trackedConn struct {
	net.Conn
	l    *Listener
	once sync.Once
}

func (c *trackedConn) Close() error {
	c.once.Do(func() {
		c.l.mu.Lock()
		delete(c.l.conns, c.Conn)
		c.l.mu.Unlock()
	})
	return c.Conn.Close()
}
