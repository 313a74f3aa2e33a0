// Package server exposes a DB over the versioned /v1 HTTP API — a
// dependency-free network front end that also speaks the cluster
// protocol: shard-ownership enforcement, the shard-map control plane, and
// the migration endpoints the shard manager drives (cmd/adcached serves
// it; client is the supported Go consumer; API.md documents the wire
// format).
//
// Data plane (data.go):
//
//	GET    /v1/kv/{key}               → 200 value | 404
//	PUT    /v1/kv/{key}  body=value   → 204
//	DELETE /v1/kv/{key}               → 204
//	GET    /v1/scan?start=K&n=16      → 200 JSON [{"key":...,"value":...}]
//	GET    /v1/scan?start=K&end=L     → bounded variant
//	POST   /v1/batch     JSON ops     → 204 (atomic on this node)
//
// Batch bodies and scan responses additionally speak the binary codec
// (internal/api/wire): POST /v1/batch with Content-Type
// application/x-adcache-bin carries a binary batch, and GET /v1/scan with
// that Accept value streams binary entry frames. JSON stays the default;
// scans stream in both formats (chunks are flushed as the iterator
// advances, and a response that ends without its terminator — "]" or the
// binary end frame — was truncated mid-stream).
//
// Cluster plane (cluster.go) and observability:
//
//	GET    /v1/stats                  → 200 JSON adcache.MetricsSnapshot
//	GET    /v1/shardmap               → 200 JSON cluster.ShardMap
//	POST   /v1/shardmap               → 204 (accept newer epoch)
//	GET    /v1/shardstats             → 200 JSON api.ShardStats
//	GET    /v1/migrate?shard=S        → 200 binary entry stream (internal)
//	POST   /v1/migrate?shard=S        → 204 bulk load, binary batch (internal)
//	DELETE /v1/migrate?shard=S        → 204 purge unowned shard (internal)
//	GET    /v1/health                 → 200 | 503 JSON api.Health
//	GET    /metrics                   → 200 Prometheus text exposition
//	GET    /debug/vars                → 200 expvar JSON + registry snapshot
//	GET    /debug/pprof/*             → profiling (opt-in via WithPprof)
//
// Every request runs one pipeline: route → limiter → codec → stage →
// apply → respond. The codec (codec.go) is chosen once per request from
// Content-Type/Accept; every write — single PUT/DELETE, batch in either
// codec, migration load and purge — is staged on a pooled writeReq and
// committed by the one apply; every entry stream — scan and migration
// export — is the one stream loop with a filter.
//
// Every non-2xx response, unknown paths included, carries the typed JSON
// error envelope {"code","message","epoch"} (api.Envelope). On a
// cluster-configured node every keyed response also carries
// X-Adcache-Node/-Epoch/-Shard routing headers, and keys outside the
// node's owned shards are rejected with 421 WRONG_SHARD — the retryable
// signal that tells a client its shard map is stale.
//
// Keys and values are raw bytes in paths/bodies (keys URL-escaped); scan
// and stats return JSON. Every request is measured into the DB's metrics
// registry (http_requests_total and http_request_nanos by route), and
// keyed operations additionally feed per-shard read/write histograms
// (http_shard_read_nanos{shard="3"}, …) — the series the shard manager
// polls through /v1/shardstats.
package server

import (
	"crypto/subtle"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	httppprof "net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"adcache"
	"adcache/internal/api"
	"adcache/internal/cluster"
	"adcache/internal/metrics"
)

// config is the resolved option set for one server.
type config struct {
	readOnly      bool
	maxBodyBytes  int64
	nodeID        string
	view          *cluster.NodeView
	maxInFlight   int
	serviceTime   time.Duration
	internalToken string
	pprof         bool
	coalesce      bool
	coalWindow    time.Duration
	coalMaxOps    int
	drain         *DrainState
}

// Option configures New.
type Option func(*config)

// WithReadOnly rejects every mutating data request (PUT/POST/DELETE on
// /v1/kv, POST /v1/batch, migration writes) with 403 READ_ONLY, leaving
// reads and observability up — the mode for exposing a store to
// dashboards without write access.
func WithReadOnly() Option { return func(c *config) { c.readOnly = true } }

// WithMaxBodyBytes caps request bodies on /v1/kv, /v1/batch and
// /v1/migrate (default 64 MiB).
func WithMaxBodyBytes(n int64) Option { return func(c *config) { c.maxBodyBytes = n } }

// WithCluster wires a NodeView as both identity (reported in the
// X-Adcache-Node header and /v1/shardstats) and map source — the standard
// cluster configuration.
func WithCluster(view *cluster.NodeView) Option {
	return func(c *config) {
		c.nodeID = view.ID()
		c.view = view
	}
}

// WithInternalToken sets the shared secret authenticating shard-manager
// traffic: requests whose HeaderInternal value matches it may use the
// /v1/migrate endpoints and bypass ownership checks. Without a token the
// migration surface rejects every request — there is no well-known
// default value.
func WithInternalToken(tok string) Option { return func(c *config) { c.internalToken = tok } }

// WithConcurrencyLimit bounds in-flight data-plane requests; excess
// requests queue. This models a node's finite serving capacity: a node
// taking a disproportionate share of fleet traffic exhibits queueing
// delay, which is exactly the tail-latency signal the shard manager
// rebalances away. Control-plane and observability routes bypass the
// limit so management never queues behind data. 0 means unlimited.
func WithConcurrencyLimit(n int) Option { return func(c *config) { c.maxInFlight = n } }

// WithServiceTime makes every data-plane request hold its concurrency
// slot for at least d. On loopback, real handler time is microseconds —
// far too small for a concurrency limit to ever queue — so load
// generators (adbench -cluster) use this to model nodes backed by slower
// media, where finite capacity is the true bottleneck and overload shows
// up as queueing delay. Production servers leave it zero.
func WithServiceTime(d time.Duration) Option { return func(c *config) { c.serviceTime = d } }

// WithPprof mounts the standard net/http/pprof endpoints under
// /debug/pprof/. Opt-in: profiling handlers can expose stacks and should
// not be on by default on a data port.
func WithPprof() Option { return func(c *config) { c.pprof = true } }

// WithWriteCoalescing groups concurrent write requests — single-op
// puts/deletes and whole /v1/batch bodies — into one engine Apply under
// one flight-lock hold, amortizing WAL fsync and lock costs across
// connections (the cross-request analogue of the engine's write-group
// commit). A group closes after window has passed since its first
// request or once maxOps total ops are staged, whichever comes first;
// window 0 groups only what is already queued (no added latency),
// maxOps <= 0 defaults to 128. Off by default: every request is its own
// group of one. The option selects only when groups form — both modes
// commit through the same apply, so durability, atomicity and fence
// semantics are identical (see coalesce.go).
func WithWriteCoalescing(window time.Duration, maxOps int) Option {
	return func(c *config) {
		c.coalesce = true
		c.coalWindow = window
		c.coalMaxOps = maxOps
	}
}

// New returns an http.Handler serving db with the given options — the
// package's only constructor.
func New(db *adcache.DB, opts ...Option) http.Handler {
	cfg := config{maxBodyBytes: 64 << 20}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.maxBodyBytes <= 0 {
		cfg.maxBodyBytes = 64 << 20
	}
	nShards := 1
	if cfg.view != nil {
		nShards = cfg.view.Current().Shards
	}
	s := &server{db: db, cfg: cfg, reg: db.Registry(), nShards: nShards}
	s.readHist = make([]*metrics.Histogram, nShards)
	s.writeHist = make([]*metrics.Histogram, nShards)
	s.shardStrs = make([]string, nShards)
	for i := 0; i < nShards; i++ {
		s.shardStrs[i] = strconv.Itoa(i)
		s.readHist[i] = s.reg.Histogram(fmt.Sprintf("http_shard_read_nanos{shard=%q}", s.shardStrs[i]),
			"Keyed read latency by hash slot.")
		s.writeHist[i] = s.reg.Histogram(fmt.Sprintf("http_shard_write_nanos{shard=%q}", s.shardStrs[i]),
			"Keyed write latency by hash slot.")
	}
	if cfg.maxInFlight > 0 {
		s.sem = make(chan struct{}, cfg.maxInFlight)
	}
	if cfg.coalesce && !cfg.readOnly {
		s.startCoalescer()
	}

	mux := http.NewServeMux()
	s.route(mux, "/v1/kv/", "kv", true, s.handleKV)
	s.route(mux, "/v1/scan", "scan", true, s.handleScan)
	s.route(mux, "/v1/batch", "batch", true, s.handleBatch)
	s.route(mux, "/v1/stats", "stats", false, s.handleStats)
	s.route(mux, "/v1/shardmap", "shardmap", false, s.handleShardMap)
	s.route(mux, "/v1/shardstats", "shardstats", false, s.handleShardStats)
	s.route(mux, "/v1/migrate", "migrate", false, s.handleMigrate)
	s.route(mux, "/v1/health", "health", false, s.handleHealth)
	s.route(mux, "/metrics", "metrics", false, s.handleMetrics)
	s.route(mux, "/debug/vars", "debug", false, s.handleDebugVars)
	if cfg.pprof {
		s.route(mux, "/debug/pprof/", "debug", false, httppprof.Index)
		s.route(mux, "/debug/pprof/cmdline", "debug", false, httppprof.Cmdline)
		s.route(mux, "/debug/pprof/profile", "debug", false, httppprof.Profile)
		s.route(mux, "/debug/pprof/symbol", "debug", false, httppprof.Symbol)
		s.route(mux, "/debug/pprof/trace", "debug", false, httppprof.Trace)
	}
	// Everything else — the retired pre-/v1 paths included — is no route:
	// it is counted as "other" and never waits on the data-plane limiter.
	s.route(mux, "/", "other", false, s.handleNotFound)
	return mux
}

// epochStr caches the decimal form of the current map epoch so routing
// headers do not re-format it on every request.
type epochStr struct {
	e uint64
	s string
}

type server struct {
	db      *adcache.DB
	cfg     config
	reg     *metrics.Registry
	nShards int
	// Per-hash-slot latency histograms, the shard manager's signal.
	readHist  []*metrics.Histogram
	writeHist []*metrics.Histogram
	// shardStrs precomputes slot labels for routing headers.
	shardStrs []string
	// epochCache holds the last-formatted epoch header value.
	epochCache atomic.Pointer[epochStr]
	// sem bounds in-flight data-plane requests when non-nil.
	sem chan struct{}
	// flight orders mutations against shard-map changes: apply holds the
	// read side from its ownership decision through the engine write, and
	// installing a new map (the shard manager's fence) takes the write
	// side. A write therefore either commits entirely before the fence is
	// acknowledged — and is included in the migration's copy — or starts
	// after it and sees the new map's ownership, answering WRONG_SHARD
	// instead of acking a doomed write.
	flight sync.RWMutex
	// coal forms multi-request groups for apply when WithWriteCoalescing
	// is on (nil otherwise); see coalesce.go.
	coal       *coalescer
	coalGroups *metrics.Counter
	coalOps    *metrics.Counter
	coalSize   *metrics.Histogram
}

// route mounts h at pattern behind the per-request instrumentation:
// request counting and a latency histogram under the route's label (a
// bounded label set, so metric cardinality cannot grow with the key
// space), for data routes the concurrency limit, and the pooled
// timedWriter carrying the request's arrival time (taken before the
// concurrency-limit wait, so per-shard histograms include queueing delay
// — an overloaded node's slots then read hot to the shard manager even
// when pure handler time is tiny) and scratch buffers. Control-plane and
// observability routes bypass the limit so management never queues behind
// data.
func (s *server) route(mux *http.ServeMux, pattern, label string, data bool, h http.HandlerFunc) {
	hist := s.reg.Histogram(fmt.Sprintf("http_request_nanos{route=%q}", label), "HTTP request latency by route.")
	count := s.reg.Counter(fmt.Sprintf("http_requests_total{route=%q}", label), "HTTP requests served by route.")
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		count.Inc()
		start := time.Now()
		if data {
			if s.sem != nil {
				s.sem <- struct{}{}
				defer func() { <-s.sem }()
			}
			if s.cfg.serviceTime > 0 {
				time.Sleep(s.cfg.serviceTime)
			}
		}
		tw := twPool.Get().(*timedWriter)
		tw.ResponseWriter, tw.start = w, start
		h(tw, r)
		tw.ResponseWriter = nil
		if cap(tw.body) > keepScratchBytes {
			tw.body = nil
		}
		if cap(tw.out) > keepScratchBytes {
			tw.out = nil
		}
		twPool.Put(tw)
		hist.ObserveSince(start)
	})
}

// handleNotFound answers unknown paths with the typed envelope like every
// other error; the four retired pre-/v1 paths name their successor.
func (s *server) handleNotFound(w http.ResponseWriter, r *http.Request) {
	p := r.URL.Path
	msg := "no route " + p
	if strings.HasPrefix(p, "/kv/") || p == "/scan" || p == "/batch" || p == "/stats" {
		msg = p + " was retired; use /v1" + p
	}
	s.writeErr(w, http.StatusNotFound, api.CodeNotFound, msg)
}

// currentMap returns the shard map in force (nil without a cluster).
func (s *server) currentMap() *cluster.ShardMap {
	if s.cfg.view == nil {
		return nil
	}
	return s.cfg.view.Current()
}

// epoch returns the node's current map epoch (0 without a cluster).
func (s *server) epoch() uint64 {
	if m := s.currentMap(); m != nil {
		return m.Epoch
	}
	return 0
}

// slot returns key's hash slot under m (without a map: under the slot
// count the server was built with).
func (s *server) slot(m *cluster.ShardMap, key []byte) int {
	if m != nil {
		return m.Shard(key)
	}
	if s.nShards > 1 {
		return cluster.ShardOf(key, s.nShards)
	}
	return 0
}

// owns is the shard-ownership rule: this node serves slot under m iff the
// map names it owner (a node without a map serves everything).
func (s *server) owns(m *cluster.ShardMap, slot int) bool {
	return m == nil || m.Owner[slot] == s.cfg.nodeID
}

// routeHeaders stamps the routing headers under m: epoch and node, plus
// the slot for keyed requests (slot < 0 omits it).
func (s *server) routeHeaders(w http.ResponseWriter, m *cluster.ShardMap, slot int) {
	if m == nil {
		return
	}
	h := w.Header()
	c := s.epochCache.Load()
	if c == nil || c.e != m.Epoch {
		c = &epochStr{e: m.Epoch, s: strconv.FormatUint(m.Epoch, 10)}
		s.epochCache.Store(c)
	}
	h.Set(api.HeaderEpoch, c.s)
	if s.cfg.nodeID != "" {
		h.Set(api.HeaderNode, s.cfg.nodeID)
	}
	if slot >= 0 && slot < len(s.shardStrs) {
		h.Set(api.HeaderShard, s.shardStrs[slot])
	} else if slot >= 0 {
		h.Set(api.HeaderShard, strconv.Itoa(slot))
	}
}

// writeErr emits the typed error envelope (hand-encoded into the
// request's scratch buffer; shape identical to json.Marshal of
// api.Envelope, whose epoch field is omitempty).
func (s *server) writeErr(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	tw := writerOf(w)
	buf := append(tw.out[:0], `{"code":"`...)
	buf = append(buf, code...)
	buf = append(buf, `","message":`...)
	buf = api.AppendJSONString(buf, []byte(msg))
	if e := s.epoch(); e != 0 {
		buf = append(buf, `,"epoch":`...)
		buf = strconv.AppendUint(buf, e, 10)
	}
	buf = append(buf, '}', '\n')
	w.Write(buf)
	tw.out = buf
}

// writeWrongShard answers 421 for a slot this node does not own under m.
func (s *server) writeWrongShard(w http.ResponseWriter, slot int, owner string) {
	s.writeErr(w, http.StatusMisdirectedRequest, api.CodeWrongShard,
		fmt.Sprintf("shard %d owned by node %q", slot, owner))
}

// methodNotAllowed answers 405 for r's method on its route.
func (s *server) methodNotAllowed(w http.ResponseWriter, r *http.Request) {
	s.writeErr(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed,
		"method "+r.Method+" not allowed on "+r.URL.Path)
}

// deny reports (and handles) a mutating request arriving in read-only mode.
func (s *server) deny(w http.ResponseWriter) bool {
	if !s.cfg.readOnly {
		return false
	}
	s.writeErr(w, http.StatusForbidden, api.CodeReadOnly, "node is read-only")
	return true
}

// internalOK reports whether r authenticates as shard-manager traffic:
// the node must have a migration token configured and the request's
// HeaderInternal value must match it.
func (s *server) internalOK(r *http.Request) bool {
	tok := s.cfg.internalToken
	if tok == "" {
		return false
	}
	return subtle.ConstantTimeCompare([]byte(r.Header.Get(api.HeaderInternal)), []byte(tok)) == 1
}

// observeShard records a keyed op's latency into the slot's read or
// write histogram (guarding against maps with more slots than this
// server was built with — the slot count is fixed per cluster).
func (s *server) observeShard(shard int, write bool, start time.Time) {
	if shard < 0 || shard >= s.nShards {
		return
	}
	if write {
		s.writeHist[shard].ObserveSince(start)
	} else {
		s.readHist[shard].ObserveSince(start)
	}
}

// errTooLarge marks a request body over the node's cap.
var errTooLarge = errors.New("body exceeds cap")

// readBody drains a size-capped request body into the request's pooled
// scratch buffer, classifying over-cap as 413 TOO_LARGE and transport
// errors as 400 BAD_BODY. The returned slice is valid until the handler
// returns (it is recycled with the request).
func (s *server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	limit := s.cfg.maxBodyBytes
	tw := writerOf(w)
	var err error = errTooLarge
	if r.ContentLength <= limit {
		tw.body, err = readCapped(r.Body, tw.body[:0], r.ContentLength, limit)
	}
	switch {
	case err == errTooLarge:
		s.writeErr(w, http.StatusRequestEntityTooLarge, api.CodeTooLarge,
			fmt.Sprintf("body exceeds %d bytes", limit))
		return nil, false
	case err != nil:
		s.writeErr(w, http.StatusBadRequest, api.CodeBadBody, err.Error())
		return nil, false
	}
	return tw.body, true
}

// readCapped appends r to buf until EOF (hint, when positive, presizes
// it), failing with errTooLarge once more than limit bytes have arrived.
func readCapped(r io.Reader, buf []byte, hint, limit int64) ([]byte, error) {
	if hint > int64(cap(buf)) && hint <= limit {
		buf = make([]byte, 0, hint)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		space := buf[len(buf):cap(buf)]
		// Never read past limit+1: one extra byte distinguishes "exactly
		// at the cap" from "over it" without buffering an oversized body.
		if over := int64(len(buf)+len(space)) - (limit + 1); over > 0 {
			space = space[:int64(len(space))-over]
		}
		n, err := r.Read(space)
		buf = buf[:len(buf)+n]
		switch {
		case int64(len(buf)) > limit:
			return buf, errTooLarge
		case err == io.EOF:
			return buf, nil
		case err != nil:
			return buf, err
		}
	}
}

// handleStats serves the DB's unified snapshot verbatim — one struct, one
// JSON shape, no per-strategy cases.
func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.db.Metrics())
}

// handleMetrics serves the registry in the Prometheus text exposition
// format.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}

// handleDebugVars serves the standard expvar payload (cmdline, memstats,
// and anything the process published) with the DB's registry snapshot
// appended under "adcache". The DB registry is merged here rather than
// expvar.Publish'ed because Publish is process-global and panics on
// duplicates — one process may run many DBs.
func (s *server) handleDebugVars(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	fmt.Fprintf(w, "{\n")
	expvar.Do(func(kv expvar.KeyValue) {
		fmt.Fprintf(w, "%q: %s,\n", kv.Key, kv.Value.String())
	})
	snap, err := json.Marshal(s.db.Registry().Snapshot())
	if err != nil {
		snap = []byte("{}")
	}
	fmt.Fprintf(w, "%q: %s\n}\n", "adcache", snap)
}
