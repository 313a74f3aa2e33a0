// Package client is the supported Go client for an adcache cluster (or a
// single adcached node): it speaks the versioned /v1 wire API, caches the
// cluster's shard map, routes every key to its owning node, batches
// multi-key operations per node and dispatches them concurrently over
// pooled keep-alive connections, and transparently refreshes its map and
// retries when a node answers WRONG_SHARD — the signal that a shard moved.
//
//	c, err := client.New([]string{"127.0.0.1:8081", "127.0.0.1:8082"})
//	...
//	err = c.Put([]byte("k"), []byte("v"))
//	v, ok, err := c.Get([]byte("k"))
//
// Against a node started without cluster flags the client runs in
// single-node mode: no map, every request to the one seed address.
//
// Every operation takes one path: retry runs the operation's attempts, and
// each attempt reaches a node through send — breaker, per-attempt deadline,
// epoch header, hedging for reads, envelope decoding. Get, Put, Delete, each
// node's share of a Batch and each node's Scan stream differ only in the
// request they describe.
//
// Consistency contract: a rebalance fences the old owner before the new
// owner accepts a key, so an acked write is never lost across a shard
// move; during the move itself requests to the moving shard retry with
// backoff (bounded by WithMaxRetries) until the new owner holds both the
// map and the data. Multi-node Batch is atomic per node, not across
// nodes. Scan fans out to every node and merges, so results spanning a
// concurrent rebalance are eventually consistent.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"adcache/internal/api"
	"adcache/internal/api/wire"
	"adcache/internal/cluster"
)

// KV is one scan result.
type KV struct {
	Key   []byte
	Value []byte
}

// OpKind selects a batch operation.
type OpKind string

// The batch operation kinds.
const (
	OpPut    OpKind = "put"
	OpDelete OpKind = "delete"
)

// Op is one operation in a Batch.
type Op struct {
	Kind  OpKind
	Key   []byte
	Value []byte
}

// Stats is a point-in-time snapshot of the client's routing behavior —
// the observable the cluster tests assert on (bounded retries, zero
// unexpected errors). Counters count attempts: one request to one node, or
// for a Batch one round that sends every still-unacked node group.
type Stats struct {
	// Epoch is the client's current shard-map epoch (0 in single-node mode).
	Epoch uint64
	// WrongShardRetries counts attempts answered WRONG_SHARD and re-sent.
	WrongShardRetries int64
	// MapRefreshes counts shard-map fetches after the initial bootstrap.
	MapRefreshes int64
	// RetryableErrors counts attempts that failed retryably otherwise —
	// transport errors, per-attempt timeouts, open breakers, response
	// bodies cut short — and were retried.
	RetryableErrors int64
	// TerminalErrors counts calls that ended in a terminal error (an
	// envelope other than WRONG_SHARD/NOT_FOUND, or the caller's context
	// ending).
	TerminalErrors int64
	// BreakerOpens and BreakerCloses count per-node circuit-breaker
	// transitions; a close after an open is the recovery signal chaos
	// tests assert on.
	BreakerOpens  int64
	BreakerCloses int64
	// HedgedReads counts hedge requests launched (WithHedgedReads);
	// HedgeWins counts hedges that answered before the primary.
	HedgedReads int64
	HedgeWins   int64
}

// Option configures New.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (tests,
// custom transports). The default pools 64 keep-alive connections per
// node so concurrent requests to one node pipeline instead of
// re-dialing.
func WithHTTPClient(h *http.Client) Option { return func(c *Client) { c.httpc = h } }

// WithMaxRetries bounds per-request WRONG_SHARD/transport retries
// (default 20 — enough to ride out one shard migration).
func WithMaxRetries(n int) Option { return func(c *Client) { c.maxRetries = n } }

// WithRetryBackoff sets the per-attempt backoff base (default 5ms). The
// k-th retry waits a full-jitter draw from [0, min(cap, base·2^(k-1))];
// the cap defaults to 20×base (see WithBackoffCap).
func WithRetryBackoff(d time.Duration) Option { return func(c *Client) { c.backoff = d } }

// WithBackoffCap caps the exponential backoff ceiling (default 20×base).
func WithBackoffCap(d time.Duration) Option { return func(c *Client) { c.backoffCap = d } }

// WithRequestTimeout puts a deadline on each individual attempt (0 —
// the default — relies on the http.Client's overall timeout only). With
// it, a hung node costs one attempt's timeout, not the whole call
// budget; the deadline covers reading the response body, so size it for
// scans too.
func WithRequestTimeout(d time.Duration) Option { return func(c *Client) { c.reqTimeout = d } }

// WithJitterSeed seeds the backoff/jitter PRNG so retry schedules
// replay run-to-run (0 = seed from the clock).
func WithJitterSeed(seed int64) Option { return func(c *Client) { c.jitterSeed = seed } }

// WithBreaker tunes the per-node circuit breaker: it opens after
// threshold consecutive transport failures to one node and half-open
// probes after cooldown (defaults 5 and 200ms). An open breaker never
// fails a call terminally — attempts against it are skipped and
// retried elsewhere in time, so a dead node stops eating connect
// timeouts and a recovering one is rediscovered by a single probe.
func WithBreaker(threshold int, cooldown time.Duration) Option {
	return func(c *Client) { c.breakerThreshold, c.breakerCooldown = threshold, cooldown }
}

// WithHedgedReads arms read hedging: a Get or scan-open that has not
// answered within delay is raced against a second identical request on
// another pooled connection; the first usable answer wins. Reads only —
// writes are never hedged. This converts a brownout node's tail (slow
// with probability p) into p² at the cost of bounded duplicate reads.
func WithHedgedReads(delay time.Duration) Option { return func(c *Client) { c.hedgeDelay = delay } }

// WithBinary switches the bulk data plane to the length-prefixed binary
// framing: batches POST application/x-adcache-bin bodies and scans ask
// for the binary entry stream via Accept. Semantics are identical to
// the JSON default — same routing, retries, and error envelopes — minus
// the JSON encode/decode cost, and values round-trip as raw bytes
// (arbitrary binary survives; JSON degrades invalid UTF-8 to U+FFFD).
// Requires servers that speak the codec; older servers answer 400.
func WithBinary() Option { return func(c *Client) { c.codec = binCodec{} } }

// Client is a shard-map-caching, routing, retrying cluster client. Safe
// for concurrent use.
type Client struct {
	httpc      *http.Client
	seeds      []string
	maxRetries int
	backoff    time.Duration
	backoffCap time.Duration
	reqTimeout time.Duration
	hedgeDelay time.Duration
	jitterSeed int64
	codec      codec

	breakerThreshold int
	breakerCooldown  time.Duration

	rngMu sync.Mutex
	rng   *rand.Rand

	brMu     sync.Mutex
	breakers map[string]*breaker

	cur atomic.Pointer[cluster.ShardMap] // nil in single-node mode

	retries       atomic.Int64
	refreshes     atomic.Int64
	retryableErrs atomic.Int64
	terminalErrs  atomic.Int64
	breakerOpens  atomic.Int64
	breakerCloses atomic.Int64
	hedges        atomic.Int64
	hedgeWins     atomic.Int64
}

// New connects to a cluster through one or more seed addresses
// ("host:port"). It bootstraps the shard map from the first seed that
// serves /v1/shardmap; if every seed reports it is not
// cluster-configured, the client degrades to single-node mode against
// the first seed.
func New(seeds []string, opts ...Option) (*Client, error) {
	if len(seeds) == 0 {
		return nil, errors.New("client: no seed addresses")
	}
	c := &Client{
		seeds:            append([]string(nil), seeds...),
		maxRetries:       20,
		backoff:          5 * time.Millisecond,
		codec:            jsonCodec{},
		breakerThreshold: 5,
		breakerCooldown:  200 * time.Millisecond,
		breakers:         map[string]*breaker{},
	}
	for _, o := range opts {
		o(c)
	}
	if c.backoffCap <= 0 {
		c.backoffCap = 20 * c.backoff
	}
	c.rng = seededRNG(c.jitterSeed)
	if c.httpc == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConns = 256
		tr.MaxIdleConnsPerHost = 64
		c.httpc = &http.Client{Transport: tr, Timeout: 30 * time.Second}
	}
	var lastErr error
	for _, seed := range c.seeds {
		m, err := c.fetchMap(context.Background(), seed)
		if err == nil {
			c.cur.Store(m)
			return c, nil
		}
		if code(err) == api.CodeNotFound {
			return c, nil // single-node mode
		}
		lastErr = err
	}
	return nil, fmt.Errorf("client: bootstrap failed against all seeds: %w", lastErr)
}

// Close releases pooled connections.
func (c *Client) Close() { c.httpc.CloseIdleConnections() }

// Epoch returns the cached shard-map epoch (0 in single-node mode).
func (c *Client) Epoch() uint64 {
	if m := c.cur.Load(); m != nil {
		return m.Epoch
	}
	return 0
}

// Stats returns a snapshot of the client's routing counters.
func (c *Client) Stats() Stats {
	return Stats{
		Epoch:             c.Epoch(),
		WrongShardRetries: c.retries.Load(),
		MapRefreshes:      c.refreshes.Load(),
		RetryableErrors:   c.retryableErrs.Load(),
		TerminalErrors:    c.terminalErrs.Load(),
		BreakerOpens:      c.breakerOpens.Load(),
		BreakerCloses:     c.breakerCloses.Load(),
		HedgedReads:       c.hedges.Load(),
		HedgeWins:         c.hedgeWins.Load(),
	}
}

// fetchMap GETs /v1/shardmap from addr. It is the control plane's one
// request and bypasses send: the map decides routing, so fetching it must
// not itself depend on a map, a breaker or a retry budget.
func (c *Client) fetchMap(ctx context.Context, addr string) (*cluster.ShardMap, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/v1/shardmap", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeEnvelope(resp)
	}
	var m cluster.ShardMap
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, err
	}
	return &m, nil
}

// refreshFrom adopts addr's map if it is newer than the cached one.
// Epochs only move forward — a node still holding an older map cannot
// regress the client.
func (c *Client) refreshFrom(ctx context.Context, addr string) {
	m, err := c.fetchMap(ctx, addr)
	if err != nil {
		return
	}
	c.refreshes.Add(1)
	for {
		cur := c.cur.Load()
		if cur != nil && m.Epoch <= cur.Epoch {
			return
		}
		if c.cur.CompareAndSwap(cur, m) {
			return
		}
	}
}

// Refresh force-fetches the shard map from every known node, keeping the
// highest epoch.
func (c *Client) Refresh(ctx context.Context) {
	for _, addr := range c.addrs() {
		c.refreshFrom(ctx, addr)
	}
}

// addrs returns every routable node address (map nodes, or the seeds).
func (c *Client) addrs() []string {
	if m := c.cur.Load(); m != nil {
		out := make([]string, len(m.Nodes))
		for i, n := range m.Nodes {
			out[i] = n.Addr
		}
		return out
	}
	return c.seeds[:1]
}

// route returns the address owning key under the cached map.
func (c *Client) route(key []byte) string {
	m := c.cur.Load()
	if m == nil {
		return c.seeds[0]
	}
	owner := m.OwnerOf(key)
	if n, ok := m.NodeByID(owner); ok {
		return n.Addr
	}
	return c.seeds[0]
}

// decodeEnvelope turns a non-2xx response into its *api.Envelope
// (synthesizing one when the body is not an envelope).
func decodeEnvelope(resp *http.Response) *api.Envelope {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var env api.Envelope
	if err := json.Unmarshal(body, &env); err == nil && env.Code != "" {
		return &env
	}
	return &api.Envelope{
		Code:    api.CodeInternal,
		Message: fmt.Sprintf("%s: %s", resp.Status, bytes.TrimSpace(body)),
	}
}

// code returns the envelope code err carries, or "" when it carries none.
func code(err error) string {
	var env *api.Envelope
	if err != nil && errors.As(err, &env) {
		return env.Code
	}
	return ""
}

// call is one data-plane request, described independently of the node it
// is sent to: a single-key request, one node's share of a Batch, or one
// node's Scan stream.
type call struct {
	method string
	path   string // path and query
	body   []byte
	ctype  string // Content-Type of body
	accept string
	read   bool // an idempotent read: hedged under WithHedgedReads
}

// retry runs one operation: try makes an attempt, retry decides what
// follows. Success and terminal errors (IsRetryable false: an envelope
// other than WRONG_SHARD, the caller's context ending) return at once;
// retryable ones (transport failures, attempt timeouts, open breakers,
// cut bodies, WRONG_SHARD) back off with full jitter and go again, at
// most WithMaxRetries times. NOT_FOUND is an answer, not an error, so it
// returns uncounted.
func (c *Client) retry(ctx context.Context, try func() error) error {
	var err error
	for attempt := 0; attempt <= c.maxRetries; attempt++ {
		if attempt > 0 {
			if serr := c.sleep(ctx, attempt); serr != nil {
				c.terminalErrs.Add(1)
				return fmt.Errorf("client: request abandoned after %d attempts: %w", attempt, serr)
			}
		}
		if err = try(); err == nil {
			return nil
		}
		if !IsRetryable(err) {
			if code(err) != api.CodeNotFound {
				c.terminalErrs.Add(1)
			}
			return err
		}
		if code(err) == api.CodeWrongShard {
			c.retries.Add(1)
		} else {
			c.retryableErrs.Add(1)
		}
	}
	return fmt.Errorf("client: retries exhausted after %d attempts: %w", c.maxRetries+1, err)
}

// sleep waits the attempt-th jittered backoff, or returns the caller's
// context error immediately once it ends — no post-cancel attempts.
func (c *Client) sleep(ctx context.Context, attempt int) error {
	d := c.backoffJitter(attempt)
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// send makes one attempt of r against addr; it is the only way a data
// request reaches a node. It consults addr's breaker, runs the exchange
// under the per-attempt deadline (hedged for reads), feeds the transport
// outcome to the breaker and watches the answer's epoch header. A 2xx
// comes back with its body open and a release func that closes it and
// ends the attempt; any other status comes back as its *api.Envelope,
// after a WRONG_SHARD from a node ahead of the client refreshed the map.
func (c *Client) send(ctx context.Context, addr string, r *call) (*http.Response, func(), error) {
	b := c.breakerFor(addr)
	if !b.allow(time.Now(), c.breakerCooldown) {
		// The node is believed down: skip dialing it, back off, and let a
		// half-open probe test it. If the map moves the key elsewhere
		// meanwhile, the next attempt routes there.
		return nil, nil, fmt.Errorf("%w (%s)", ErrBreakerOpen, addr)
	}
	resp, release, err := c.roundTrip(ctx, addr, r)
	if err != nil {
		if ctx.Err() == nil {
			c.noteTransport(b, false)
		} else {
			// The caller's context ended mid-attempt: that says nothing
			// about the node's health, so release any probe slot without
			// charging the breaker — repeated short caller deadlines must
			// not open it.
			b.abandonProbe()
		}
		return nil, nil, err
	}
	c.noteTransport(b, true)
	c.noteEpochHeader(ctx, resp, addr)
	if resp.StatusCode/100 == 2 {
		return resp, release, nil
	}
	env := decodeEnvelope(resp)
	release()
	// A WRONG_SHARD node ahead of us has the map we need: adopt it before
	// the retry. A node *behind* us (mid-publish) just needs time.
	if env.Code == api.CodeWrongShard && env.Epoch > c.Epoch() {
		c.refreshFrom(ctx, addr)
	}
	return nil, nil, env
}

// transmit builds r for addr under the attempt context actx and performs
// the HTTP exchange.
func (c *Client) transmit(actx context.Context, addr string, r *call) (*http.Response, error) {
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequestWithContext(actx, r.method, "http://"+addr+r.path, body)
	if err != nil {
		return nil, err
	}
	if r.ctype != "" {
		req.Header.Set("Content-Type", r.ctype)
	}
	if r.accept != "" {
		req.Header.Set("Accept", r.accept)
	}
	if e := c.Epoch(); e > 0 {
		req.Header.Set(api.HeaderEpoch, strconv.FormatUint(e, 10))
	}
	return c.httpc.Do(req)
}

// noteEpochHeader watches response routing headers for evidence of a
// newer map and refreshes passively.
func (c *Client) noteEpochHeader(ctx context.Context, resp *http.Response, addr string) {
	raw := resp.Header.Get(api.HeaderEpoch)
	if raw == "" {
		return
	}
	e, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return
	}
	if cur := c.Epoch(); cur != 0 && e > cur {
		c.refreshFrom(ctx, addr)
	}
}

// keyed runs a single-key request against key's owner, re-routed on every
// attempt. consume, when non-nil, reads the 2xx body.
func (c *Client) keyed(ctx context.Context, key []byte, r *call, consume func(io.Reader) error) error {
	return c.retry(ctx, func() error {
		resp, release, err := c.send(ctx, c.route(key), r)
		if err != nil {
			return err
		}
		defer release()
		if consume == nil {
			return nil
		}
		return attemptErr(ctx, consume(resp.Body))
	})
}

// kvPath is key's single-key resource.
func kvPath(key []byte) string { return "/v1/kv/" + url.PathEscape(string(key)) }

// Get fetches key. ok is false when the key does not exist.
func (c *Client) Get(key []byte) (value []byte, ok bool, err error) {
	return c.GetCtx(context.Background(), key)
}

// GetCtx is Get with a context.
func (c *Client) GetCtx(ctx context.Context, key []byte) (value []byte, ok bool, err error) {
	err = c.keyed(ctx, key, &call{method: http.MethodGet, path: kvPath(key), read: true},
		func(body io.Reader) (rerr error) {
			value, rerr = io.ReadAll(body)
			return rerr
		})
	if code(err) == api.CodeNotFound {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return value, true, nil
}

// Put writes key=value. A nil error means the write is acked by the
// shard's owning node.
func (c *Client) Put(key, value []byte) error {
	return c.PutCtx(context.Background(), key, value)
}

// PutCtx is Put with a context.
func (c *Client) PutCtx(ctx context.Context, key, value []byte) error {
	return c.keyed(ctx, key, &call{method: http.MethodPut, path: kvPath(key), body: value}, nil)
}

// Delete removes key (idempotent).
func (c *Client) Delete(key []byte) error {
	return c.DeleteCtx(context.Background(), key)
}

// DeleteCtx is Delete with a context.
func (c *Client) DeleteCtx(ctx context.Context, key []byte) error {
	return c.keyed(ctx, key, &call{method: http.MethodDelete, path: kvPath(key)}, nil)
}

// Scan returns up to n entries with key >= start (and < end when end is
// non-empty), merged across every node in key order.
func (c *Client) Scan(start, end []byte, n int) ([]KV, error) {
	return c.ScanCtx(context.Background(), start, end, n)
}

// ScanCtx is Scan with a context. The merge is incremental: every
// node's response is decoded entry-by-entry as it streams in (JSON
// array or binary entry stream, per WithBinary) and merge-sorted on the
// fly, so the client holds at most one pending entry per node plus the
// n results — never a node's full response — and cancels the underlying
// requests as soon as n entries are merged. Each node's stream is opened
// like any read — retried until its first entry (or its clean end) has
// arrived; a stream cut after that fails the scan.
func (c *Client) ScanCtx(ctx context.Context, start, end []byte, n int) ([]KV, error) {
	if n <= 0 {
		n = 16
	}
	q := url.Values{}
	q.Set("start", string(start))
	if len(end) > 0 {
		q.Set("end", string(end))
	}
	q.Set("n", strconv.Itoa(n))
	r := &call{method: http.MethodGet, path: "/v1/scan?" + q.Encode(), accept: c.codec.contentType(), read: true}
	addrs := c.addrs()
	// A child context so returning (n reached, or any stream error)
	// aborts every stream still in flight.
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	streams := make([]*scanStream, len(addrs))
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	for i, addr := range addrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := c.openScan(sctx, addr, r)
			streams[i] = st
			if err != nil {
				// One lost stream loses the scan: stop the other opens'
				// retries rather than wait them out. The first error is
				// the cause; the others are this cancellation.
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
				cancel()
			}
		}()
	}
	wg.Wait()
	defer func() {
		for _, st := range streams {
			if st != nil {
				st.release()
			}
		}
	}()
	if firstErr != nil {
		return nil, firstErr
	}
	// Shards partition the keyspace, so streams never carry duplicate
	// keys: plain min-select over the stream heads yields global order.
	out := make([]KV, 0, n)
	for len(out) < n {
		best := -1
		for i, st := range streams {
			if st.exhausted {
				continue
			}
			if best == -1 || bytes.Compare(st.key, streams[best].key) < 0 {
				best = i
			}
		}
		if best == -1 {
			break
		}
		st := streams[best]
		out = append(out, KV{Key: st.key, Value: st.value})
		st.advance()
		if st.err != nil {
			return nil, st.err
		}
	}
	return out, nil
}

// scanStream is one node's scan response, decoded incrementally. key
// and value hold the current (not-yet-consumed) entry, owned by the
// stream's consumer once handed out — advance always builds fresh
// slices.
type scanStream struct {
	release   func()                                // closes the body and ends the attempt
	pull      func() (key, value []byte, err error) // io.EOF at clean end
	key       []byte
	value     []byte
	err       error
	exhausted bool
}

// advance loads the next entry, marking the stream exhausted at a clean
// end and recording any decode/transport error (a truncated stream —
// the server died mid-scan — surfaces here, never as silent shortness).
func (s *scanStream) advance() {
	k, v, err := s.pull()
	if err != nil {
		s.exhausted = true
		if err != io.EOF {
			s.err = err
		}
		return
	}
	s.key, s.value = k, v
}

// openScan opens addr's stream for r and primes its first entry.
func (c *Client) openScan(ctx context.Context, addr string, r *call) (*scanStream, error) {
	var st *scanStream
	err := c.retry(ctx, func() error {
		resp, release, err := c.send(ctx, addr, r)
		if err != nil {
			return err
		}
		st = &scanStream{release: release, pull: c.codec.entries(resp.Body)}
		if st.advance(); st.err != nil {
			release()
			err, st = st.err, nil
			return attemptErr(ctx, err)
		}
		return nil
	})
	return st, err
}

// Batch applies ops, grouped by owning node and dispatched concurrently.
// Each node's group is atomic on that node; cross-node batches are not
// atomic as a whole. Only failed groups are retried — re-routed under a
// refreshed map after WRONG_SHARD, re-sent as-is after a transport
// failure. A group its node has acked is never re-sent; a group whose
// ack was lost may be re-sent (puts and deletes are idempotent
// last-write-wins), so each group applies at-least-once and an acked
// batch is never lost.
func (c *Client) Batch(ops []Op) error {
	return c.BatchCtx(context.Background(), ops)
}

// BatchCtx is Batch with a context.
func (c *Client) BatchCtx(ctx context.Context, ops []Op) error {
	for _, op := range ops {
		if op.Kind != OpPut && op.Kind != OpDelete {
			return fmt.Errorf("client: unknown batch op kind %q", op.Kind)
		}
	}
	pending := ops
	err := c.retry(ctx, func() (err error) {
		pending, err = c.sendGroups(ctx, pending)
		return err
	})
	if err != nil {
		return fmt.Errorf("client: batch (%d ops unacked): %w", len(pending), err)
	}
	return nil
}

// sendGroups sends each node's group of ops concurrently, one attempt
// each, and returns the ops still unacked with the round's error: nil
// when every group acked, a terminal error when any group failed
// terminally, else a retryable one. Acked groups are consumed here and
// never returned.
func (c *Client) sendGroups(ctx context.Context, ops []Op) ([]Op, error) {
	groups := map[string][]Op{}
	for _, op := range ops {
		addr := c.route(op.Key)
		groups[addr] = append(groups[addr], op)
	}
	type result struct {
		ops []Op
		err error
	}
	results := make(chan result, len(groups))
	for addr, group := range groups {
		go func() { results <- result{group, c.sendGroup(ctx, addr, group)} }()
	}
	var unacked []Op
	var err error
	for range groups {
		r := <-results
		if r.err == nil {
			continue
		}
		unacked = append(unacked, r.ops...)
		if err == nil || IsRetryable(err) {
			err = r.err
		}
	}
	return unacked, err
}

// sendGroup makes one attempt of group as a /v1/batch on addr.
func (c *Client) sendGroup(ctx context.Context, addr string, group []Op) error {
	bp := wire.GetBuf()
	body := c.codec.appendBatch((*bp)[:0], group)
	// The buffer is pooled; it outlives the exchange because bytes.Reader's
	// GetBody (for transport retries) re-slices it, so it is returned only
	// once the attempt has fully completed.
	defer func() { *bp = body; wire.PutBuf(bp) }()
	_, release, err := c.send(ctx, addr, &call{
		method: http.MethodPost, path: "/v1/batch", body: body, ctype: c.codec.contentType(),
	})
	if err != nil {
		return err
	}
	release()
	return nil
}
