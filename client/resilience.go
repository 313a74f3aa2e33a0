package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"adcache/internal/api"
)

// This file is the client's resilience layer: typed error classification,
// capped-exponential backoff with full jitter, per-node circuit breakers
// with half-open probing, and hedged reads. retry and send in client.go
// consume these pieces; none of them change the consistency contract —
// they change how fast and how politely the client rides out a slow,
// partitioned, or dead node.

// ErrBreakerOpen is the per-attempt error recorded while a node's circuit
// breaker is open: the client skipped dialing the node entirely. It is
// retryable — the retry loop backs off and probes again — and shows up in
// a returned "retries exhausted" error chain when a node stays dead past
// the retry budget.
var ErrBreakerOpen = errors.New("client: circuit breaker open")

// ErrAttemptTimeout marks a request ended by the per-attempt deadline
// (WithRequestTimeout) while the caller's own context was still live.
// The raw failure wraps the *attempt* context's DeadlineExceeded —
// indistinguishable by errors.Is from the caller's deadline ending, which
// is terminal — so attemptErr tags it with this sentinel. It is
// retryable by definition: the whole point of a per-attempt timeout is
// that a hung node costs one attempt's budget, not the call.
var ErrAttemptTimeout = errors.New("client: per-attempt timeout")

// IsRetryable classifies a client-visible failure: true for failures that
// can heal on their own (transport errors, per-attempt timeouts, an open
// breaker, and WRONG_SHARD — a map refresh away from succeeding), false
// for terminal answers from a live node (NOT_FOUND, BAD_*, INTERNAL, ...)
// and for the caller's own context ending. The client's retry loop uses
// exactly this predicate, so a caller inspecting a returned error sees
// the same taxonomy the loop acted on.
func IsRetryable(err error) bool {
	if err == nil {
		return false
	}
	// Checked before the context errors: an attempt timeout wraps the
	// attempt context's DeadlineExceeded, but it is the node that was
	// slow, not the caller that gave up.
	if errors.Is(err, ErrAttemptTimeout) {
		return true
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var env *api.Envelope
	if errors.As(err, &env) {
		return env.Code == api.CodeWrongShard
	}
	// Everything else is transport-level: dial failures, resets, injected
	// chaos faults.
	return true
}

// backoffJitter computes the attempt-th retry delay: full jitter over a
// capped exponential — uniform in [0, min(cap, base·2^(attempt-1))].
// Full jitter (the AWS architecture-blog scheme) beats equal or no jitter
// under contention: when a fenced shard or restarted node comes back,
// retriers spread over the whole window instead of stampeding in sync.
// The draw comes from the client's seeded PRNG so tests and benches can
// replay identical schedules.
func (c *Client) backoffJitter(attempt int) time.Duration {
	ceil := c.backoff
	for i := 1; i < attempt; i++ {
		ceil *= 2
		if ceil >= c.backoffCap {
			ceil = c.backoffCap
			break
		}
	}
	if ceil > c.backoffCap {
		ceil = c.backoffCap
	}
	if ceil <= 0 {
		return 0
	}
	c.rngMu.Lock()
	d := time.Duration(c.rng.Int63n(int64(ceil) + 1))
	c.rngMu.Unlock()
	return d
}

// breakerState is a node breaker's mode.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// breaker is one node's circuit breaker. Closed: requests flow, counting
// consecutive transport failures. Open (after threshold consecutive
// failures): requests to the node are skipped without dialing until
// cooldown passes. Half-open: exactly one in-flight probe is allowed; its
// success closes the breaker, its failure re-opens it for another
// cooldown. Only transport-level failures trip it — a node answering
// WRONG_SHARD or NOT_FOUND is alive and well.
type breaker struct {
	mu       sync.Mutex
	state    breakerState
	fails    int
	openedAt time.Time
	probing  bool
}

// allow reports whether a request to this node may proceed now. In
// half-open it admits a single probe at a time.
func (b *breaker) allow(now time.Time, cooldown time.Duration) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if now.Sub(b.openedAt) < cooldown {
			return false
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// record reports an attempt's transport outcome. Returns (opened, closed)
// transition flags for the client's stats counters.
func (b *breaker) record(success bool, threshold int, now time.Time) (opened, closed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	if success {
		if b.state != breakerClosed {
			closed = true
		}
		b.state = breakerClosed
		b.fails = 0
		return
	}
	b.fails++
	if b.state == breakerHalfOpen || (b.state == breakerClosed && b.fails >= threshold) {
		if b.state != breakerOpen {
			opened = true
		}
		b.state = breakerOpen
		b.openedAt = now
	}
	return
}

// abandonProbe releases a probe slot claimed by allow() without
// recording an outcome — for attempts whose result says nothing about
// the node's health (the caller's context ended mid-request, the request
// could not even be built). Without it a half-open breaker whose probe
// was abandoned would stay probing forever, blacklisting the node.
func (b *breaker) abandonProbe() {
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

// breakerFor returns (lazily creating) addr's breaker.
func (c *Client) breakerFor(addr string) *breaker {
	c.brMu.Lock()
	defer c.brMu.Unlock()
	b, ok := c.breakers[addr]
	if !ok {
		b = &breaker{}
		c.breakers[addr] = b
	}
	return b
}

// BreakerState reports addr's breaker mode ("closed", "open",
// "half-open") — the observability hook chaos tests assert recovery on.
func (c *Client) BreakerState(addr string) string {
	c.brMu.Lock()
	b, ok := c.breakers[addr]
	c.brMu.Unlock()
	if !ok {
		return breakerClosed.String()
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state.String()
}

// noteTransport feeds one attempt's transport outcome into its node's
// breaker and the stats counters.
func (c *Client) noteTransport(b *breaker, success bool) {
	opened, closed := b.record(success, c.breakerThreshold, time.Now())
	if opened {
		c.breakerOpens.Add(1)
	}
	if closed {
		c.breakerCloses.Add(1)
	}
}

// attemptErr classifies err, the failure of an attempt's exchange or of
// reading its 2xx body. While the caller's context is live, a deadline
// error can only be the attempt's own (WithRequestTimeout), so it is
// tagged ErrAttemptTimeout and retried; any other failure is left as it is.
func attemptErr(ctx context.Context, err error) error {
	if err != nil && ctx.Err() == nil && errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %w", ErrAttemptTimeout, err)
	}
	return err
}

// attemptCtx derives one attempt's context, carrying the per-attempt
// deadline (WithRequestTimeout). A hedged attempt needs a cancel even
// without a deadline: it is how the losing request is cut off.
func (c *Client) attemptCtx(ctx context.Context, hedged bool) (context.Context, context.CancelFunc) {
	switch {
	case c.reqTimeout > 0:
		return context.WithTimeout(ctx, c.reqTimeout)
	case hedged:
		return context.WithCancel(ctx)
	}
	return ctx, func() {}
}

// roundTrip performs r's exchange with addr under an attempt context.
// When read hedging is armed and r is a read, a second identical request
// is launched on another pooled connection if the first has not answered
// within the hedge delay, and the first usable answer wins. The returned
// release closes the winner's body and cancels every attempt context,
// so it runs once the body is consumed; it is non-nil iff err is nil.
func (c *Client) roundTrip(ctx context.Context, addr string, r *call) (*http.Response, func(), error) {
	if !r.read || c.hedgeDelay <= 0 {
		actx, cancel := c.attemptCtx(ctx, false)
		resp, err := c.transmit(actx, addr, r)
		if err != nil {
			cancel()
			return nil, nil, attemptErr(ctx, err)
		}
		return resp, func() { resp.Body.Close(); cancel() }, nil
	}

	type result struct {
		resp  *http.Response
		err   error
		hedge bool
	}
	results := make(chan result, 2) // primary and hedge; neither blocks after a winner
	var cancels []context.CancelFunc
	launch := func(hedge bool) {
		actx, cancel := c.attemptCtx(ctx, true)
		cancels = append(cancels, cancel)
		go func() {
			resp, err := c.transmit(actx, addr, r)
			results <- result{resp, attemptErr(ctx, err), hedge}
		}()
	}
	cancelAll := func() {
		for _, cancel := range cancels {
			cancel()
		}
	}
	launch(false)
	t := time.NewTimer(c.hedgeDelay)
	defer t.Stop()
	hedgeC := t.C
	launched, got := 1, 0
	var firstErr error
	for {
		select {
		case <-hedgeC:
			hedgeC = nil
			c.hedges.Add(1)
			launch(true)
			launched++
		case res := <-results:
			got++
			if res.err == nil {
				if res.hedge {
					c.hedgeWins.Add(1)
				}
				// Winner. The loser is cancelled once the caller releases;
				// its straggling result is drained and closed so its
				// connection returns to the pool.
				if n := launched - got; n > 0 {
					go func() {
						for ; n > 0; n-- {
							if lr := <-results; lr.resp != nil {
								lr.resp.Body.Close()
							}
						}
					}()
				}
				return res.resp, func() { res.resp.Body.Close(); cancelAll() }, nil
			}
			if firstErr == nil {
				firstErr = res.err
			}
			if got == launched {
				// Every launched attempt failed. A hedge still pending on
				// its timer would hit the same address the primary just
				// failed against — the retry loop's backoff is the better
				// path, so fail the attempt now.
				cancelAll()
				return nil, nil, firstErr
			}
		}
	}
}

// seededRNG builds the client's jitter source.
func seededRNG(seed int64) *rand.Rand {
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return rand.New(rand.NewSource(seed))
}
