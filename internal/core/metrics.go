// Observability for the cache strategies. One table per cache kind maps
// its Stats onto both surfaces: the engine's unified Counters() query (so
// nothing above this package ever type-switches on concrete strategies) and
// the Prometheus series — aggregate and per-shard — that the strategy's one
// collector emits. AdCache additionally exposes its controller state: the
// RL reward, losses, and the tuned parameters of the latest window.
package core

import (
	"fmt"

	"adcache/internal/cache/blockcache"
	"adcache/internal/cache/kvcache"
	"adcache/internal/cache/rangecache"
	"adcache/internal/lsm"
	"adcache/internal/metrics"
)

// cacheSeries is one row of a cache's struct→series table: a field of its
// Stats, the aggregate series (and, when shardName is set, the per-shard
// series) it is exposed as, and the CacheCounters field it fills.
type cacheSeries[S any] struct {
	name, help           string
	shardName, shardHelp string
	counter              bool
	get                  func(S) int64
	set                  func(*lsm.CacheCounters, int64) // nil: not part of CacheCounters
}

var blockSeries = []cacheSeries[blockcache.Stats]{
	{"cache_block_hits_total", "Block cache hits.", "cache_block_shard_hits_total", "Block cache hits by shard.", true,
		func(s blockcache.Stats) int64 { return s.Hits }, func(c *lsm.CacheCounters, v int64) { c.BlockHits = v }},
	{"cache_block_misses_total", "Block cache misses.", "cache_block_shard_misses_total", "Block cache misses by shard.", true,
		func(s blockcache.Stats) int64 { return s.Misses }, func(c *lsm.CacheCounters, v int64) { c.BlockMisses = v }},
	{"cache_block_inserts_total", "Blocks admitted into the block cache.", "", "", true,
		func(s blockcache.Stats) int64 { return s.Inserts }, nil},
	{"cache_block_evictions_total", "Blocks evicted from the block cache.", "cache_block_shard_evictions_total", "Block cache evictions by shard.", true,
		func(s blockcache.Stats) int64 { return s.Evictions }, func(c *lsm.CacheCounters, v int64) { c.BlockEvictions = v }},
	{"cache_block_used_bytes", "Physical (resident) bytes held by the block cache.", "cache_block_shard_used_bytes", "Bytes held, by shard.", false,
		func(s blockcache.Stats) int64 { return s.Used }, func(c *lsm.CacheCounters, v int64) { c.BlockUsed = v }},
	{"cache_block_logical_bytes", "Decoded size of the blocks held by the block cache.", "", "", false,
		func(s blockcache.Stats) int64 { return s.LogicalUsed }, func(c *lsm.CacheCounters, v int64) { c.BlockLogicalUsed = v }},
	{"cache_block_capacity_bytes", "Block cache byte budget (charges physical bytes).", "", "", false,
		func(s blockcache.Stats) int64 { return s.Capacity }, func(c *lsm.CacheCounters, v int64) { c.BlockCapacity = v }},
	{"cache_block_entries", "Blocks held by the block cache.", "", "", false,
		func(s blockcache.Stats) int64 { return int64(s.Blocks) }, nil},
}

// With split keys configured, range-cache shard i covers the i-th key range
// in split order.
var rangeSeries = []cacheSeries[rangecache.Stats]{
	{"cache_range_get_hits_total", "Range cache point-lookup hits.", "cache_range_shard_get_hits_total", "Range cache point hits by key-range shard.", true,
		func(s rangecache.Stats) int64 { return s.GetHits }, func(c *lsm.CacheCounters, v int64) { c.RangeGetHits = v }},
	{"cache_range_get_misses_total", "Range cache point-lookup misses.", "", "", true,
		func(s rangecache.Stats) int64 { return s.GetMisses }, func(c *lsm.CacheCounters, v int64) { c.RangeGetMisses = v }},
	{"cache_range_scan_hits_total", "Range cache full scan hits.", "cache_range_shard_scan_hits_total", "Range cache scan hits by key-range shard.", true,
		func(s rangecache.Stats) int64 { return s.ScanHits }, func(c *lsm.CacheCounters, v int64) { c.RangeScanHits = v }},
	{"cache_range_scan_misses_total", "Range cache scan misses.", "", "", true,
		func(s rangecache.Stats) int64 { return s.ScanMisses }, func(c *lsm.CacheCounters, v int64) { c.RangeScanMisses = v }},
	{"cache_range_scan_partials_total", "Scans with a covered prefix but incomplete coverage.", "", "", true,
		func(s rangecache.Stats) int64 { return s.ScanPartials }, func(c *lsm.CacheCounters, v int64) { c.RangePartials = v }},
	{"cache_range_evictions_total", "Entries evicted from the range cache.", "cache_range_shard_evictions_total", "Range cache evictions by key-range shard.", true,
		func(s rangecache.Stats) int64 { return s.Evictions }, func(c *lsm.CacheCounters, v int64) { c.RangeEvictions = v }},
	{"cache_range_used_bytes", "Bytes held by the range cache.", "cache_range_shard_used_bytes", "Bytes held, by key-range shard.", false,
		func(s rangecache.Stats) int64 { return s.Used }, func(c *lsm.CacheCounters, v int64) { c.RangeUsed = v }},
	{"cache_range_capacity_bytes", "Range cache byte budget.", "", "", false,
		func(s rangecache.Stats) int64 { return s.Capacity }, func(c *lsm.CacheCounters, v int64) { c.RangeCapacity = v }},
	{"cache_range_entries", "Entries held by the range cache.", "", "", false,
		func(s rangecache.Stats) int64 { return int64(s.Entries) }, func(c *lsm.CacheCounters, v int64) { c.RangeEntries = int(v) }},
}

var kvSeries = []cacheSeries[kvcache.Stats]{
	{"cache_kv_hits_total", "KV cache hits.", "cache_kv_shard_hits_total", "KV cache hits by shard.", true,
		func(s kvcache.Stats) int64 { return s.Hits }, func(c *lsm.CacheCounters, v int64) { c.KVHits = v }},
	{"cache_kv_misses_total", "KV cache misses.", "cache_kv_shard_misses_total", "KV cache misses by shard.", true,
		func(s kvcache.Stats) int64 { return s.Misses }, func(c *lsm.CacheCounters, v int64) { c.KVMisses = v }},
	{"cache_kv_evictions_total", "Entries evicted from the KV cache.", "cache_kv_shard_evictions_total", "KV cache evictions by shard.", true,
		func(s kvcache.Stats) int64 { return s.Evictions }, func(c *lsm.CacheCounters, v int64) { c.KVEvictions = v }},
	{"cache_kv_used_bytes", "Bytes held by the KV cache.", "", "", false,
		func(s kvcache.Stats) int64 { return s.Used }, nil},
	{"cache_kv_capacity_bytes", "KV cache byte budget.", "", "", false,
		func(s kvcache.Stats) int64 { return s.Capacity }, nil},
	{"cache_kv_entries", "Entries held by the KV cache.", "", "", false,
		func(s kvcache.Stats) int64 { return int64(s.Entries) }, nil},
}

// fillCounters copies a cache's aggregate stats into the CacheCounters
// fields its table names.
func fillCounters[S any](c *lsm.CacheCounters, rows []cacheSeries[S], total S) {
	for _, r := range rows {
		if r.set != nil {
			r.set(c, r.get(total))
		}
	}
}

// emitCache emits every series of one cache — aggregate and per-shard —
// from one ShardStats snapshot and its sum.
func emitCache[S any](s *metrics.Sink, rows []cacheSeries[S], total S, shards []S) {
	for _, r := range rows {
		emit := func(name, help string, v int64) {
			if r.counter {
				s.Counter(name, help, v)
			} else {
				s.Gauge(name, help, float64(v))
			}
		}
		emit(r.name, r.help, r.get(total))
		if r.shardName == "" {
			continue
		}
		for i, st := range shards {
			emit(fmt.Sprintf("%s{shard=\"%d\"}", r.shardName, i), r.shardHelp, r.get(st))
		}
	}
}

// Counters implements lsm.CacheStrategy.
func (b *BlockOnly) Counters() (c lsm.CacheCounters) {
	fillCounters(&c, blockSeries, b.cache.Stats())
	return c
}

// Counters implements lsm.CacheStrategy.
func (k *KVOnly) Counters() (c lsm.CacheCounters) {
	fillCounters(&c, kvSeries, k.cache.Stats())
	return c
}

// Counters implements lsm.CacheStrategy.
func (r *RangeOnly) Counters() (c lsm.CacheCounters) {
	fillCounters(&c, rangeSeries, r.cache.Stats())
	return c
}

// Counters implements lsm.CacheStrategy.
func (a *AdCache) Counters() (c lsm.CacheCounters) {
	fillCounters(&c, blockSeries, a.block.Stats())
	fillCounters(&c, rangeSeries, a.rng.Stats())
	return c
}

// RegisterMetrics registers the strategy's one collector on reg.
func (b *BlockOnly) RegisterMetrics(reg *metrics.Registry) {
	reg.Collect(func(s *metrics.Sink) {
		shards := b.cache.ShardStats()
		emitCache(s, blockSeries, blockcache.Sum(shards), shards)
	})
}

// RegisterMetrics registers the strategy's one collector on reg.
func (k *KVOnly) RegisterMetrics(reg *metrics.Registry) {
	reg.Collect(func(s *metrics.Sink) {
		shards := k.cache.ShardStats()
		emitCache(s, kvSeries, kvcache.Sum(shards), shards)
	})
}

// RegisterMetrics registers the strategy's one collector on reg.
func (r *RangeOnly) RegisterMetrics(reg *metrics.Registry) {
	reg.Collect(func(s *metrics.Sink) {
		shards := r.cache.ShardStats()
		emitCache(s, rangeSeries, rangecache.Sum(shards), shards)
	})
}

// TuningState is the controller's view of the most recently closed window:
// the learning signal (reward, losses, adaptive learning rate) next to the
// parameters it produced and where they came from — the calibrated Prior
// for the window's mix and cache share, and the agent's Residual around it
// (chosen minus prior, before hysteresis; zero for a fresh or frozen agent).
// Served under /stats and as adcache_* gauges.
type TuningState struct {
	Windows    int64   `json:"windows"`
	AgentSteps int64   `json:"agent_steps"`
	HEstimate  float64 `json:"h_estimate"`
	HSmoothed  float64 `json:"h_smoothed"`
	// WriteEff is the last window's write efficiency (user bytes per
	// SSTable byte written, the reciprocal of windowed write
	// amplification). Zero unless memtable arbitration is enabled.
	WriteEff   float64 `json:"write_eff,omitempty"`
	Reward     float64 `json:"reward"`
	ActorLR    float64 `json:"actor_lr"`
	ActorLoss  float64 `json:"actor_loss"`
	CriticLoss float64 `json:"critic_loss"`
	Params     Params  `json:"params"`
	Prior      Params  `json:"prior"`
	Residual   Params  `json:"residual"`
}

// paramSeries names each controller parameter for the labelled
// adcache_prior / adcache_residual series.
var paramSeries = []struct {
	name string
	get  func(Params) float64
}{
	{"range_ratio", func(p Params) float64 { return p.RangeRatio }},
	{"point_threshold", func(p Params) float64 { return p.PointThreshold }},
	{"scan_a", func(p Params) float64 { return float64(p.ScanA) }},
	{"scan_b", func(p Params) float64 { return p.ScanB }},
	{"mem_ratio", func(p Params) float64 { return p.MemRatio }},
}

// Budget is one component of the unified memory ledger: the arbiter's
// byte target for it and what it actually holds. Components are
// "memtable" (target = Capacity × MemRatio, actual = active + immutable
// physical bytes), "blockcache" and "rangecache" (targets are the
// post-split cache capacities, actuals the resident bytes).
type Budget struct {
	Component   string `json:"component"`
	TargetBytes int64  `json:"target_bytes"`
	ActualBytes int64  `json:"actual_bytes"`
}

// Budgets reports the unified ledger's per-component targets and actuals.
// The memtable row is all-zero when no DB is bound or arbitration is off.
// Safe for concurrent use.
func (a *AdCache) Budgets() []Budget {
	return a.budgets(a.block.Stats(), a.rng.Stats())
}

// budgets builds the ledger from cache stats the caller already holds.
func (a *AdCache) budgets(bs blockcache.Stats, rs rangecache.Stats) []Budget {
	info := a.dbWriteInfo()
	return []Budget{
		{Component: "memtable",
			TargetBytes: int64(float64(a.cfg.Capacity) * a.CurrentParams().MemRatio),
			ActualBytes: info.MemBytes + info.ImmBytes},
		{Component: "blockcache", TargetBytes: bs.Capacity, ActualBytes: bs.Used},
		{Component: "rangecache", TargetBytes: rs.Capacity, ActualBytes: rs.Used},
	}
}

// TuningState returns the controller state of the last closed window. Before
// the first window closes it is the zero value.
func (a *AdCache) TuningState() TuningState {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.tuning
}

// RegisterMetrics registers AdCache's one collector: per scrape it visits
// each component cache's shards once and emits their series, the budget
// ledger built from the same stats, and the controller gauges. A scrape
// never touches the tuner-owned agent: every adcache_* value reads either
// the atomic params or the mu-guarded TuningState copy that tuneOnce writes
// at each window boundary.
func (a *AdCache) RegisterMetrics(reg *metrics.Registry) {
	reg.Collect(func(s *metrics.Sink) {
		blockShards, rangeShards := a.block.ShardStats(), a.rng.ShardStats()
		bs, rs := blockcache.Sum(blockShards), rangecache.Sum(rangeShards)
		emitCache(s, blockSeries, bs, blockShards)
		emitCache(s, rangeSeries, rs, rangeShards)

		p, t := a.CurrentParams(), a.TuningState()
		s.Gauge("adcache_range_ratio", "Fraction of the cache budget held by the range cache.", p.RangeRatio)
		s.Gauge("adcache_mem_ratio", "Fraction of the unified budget allotted to memtables (0 without arbitration).", p.MemRatio)
		for _, b := range a.budgets(bs, rs) {
			s.Gauge(fmt.Sprintf("adcache_budget_target_bytes{component=%q}", b.Component),
				"Unified-ledger byte target for the component.", float64(b.TargetBytes))
			s.Gauge(fmt.Sprintf("adcache_budget_actual_bytes{component=%q}", b.Component),
				"Bytes the component actually holds.", float64(b.ActualBytes))
		}
		s.Gauge("adcache_write_eff", "Last window's write efficiency (1/write-amplification; unified arbitration only).", t.WriteEff)
		s.Gauge("adcache_point_threshold", "Frequency-score threshold for point admission.", p.PointThreshold)
		s.Gauge("adcache_scan_a", "Full-admission scan length threshold a, in keys.", float64(p.ScanA))
		s.Gauge("adcache_scan_b", "Partial-admission aggressiveness b.", p.ScanB)
		for _, ps := range paramSeries {
			s.Gauge(fmt.Sprintf("adcache_prior{param=%q}", ps.name),
				"Last window's calibrated prior for the parameter.", ps.get(t.Prior))
			s.Gauge(fmt.Sprintf("adcache_residual{param=%q}", ps.name),
				"Last window's learned residual around the prior (chosen minus prior, before hysteresis).", ps.get(t.Residual))
		}

		s.Counter("adcache_windows_total", "Control windows processed by the tuner.", a.Windows())
		s.Counter("adcache_agent_steps_total", "Actor-critic updates performed.", t.AgentSteps)
		s.Gauge("adcache_reward", "Last window's learning-rate signal Δh/h.", t.Reward)
		s.Gauge("adcache_h_estimate", "Last window's I/O-model hit-rate estimate.", t.HEstimate)
		s.Gauge("adcache_h_smoothed", "Smoothed hit-rate estimate (the critic target).", t.HSmoothed)
		s.Gauge("adcache_actor_lr", "Adaptive actor learning rate.", t.ActorLR)
		s.Gauge("adcache_actor_loss", "Actor policy-gradient surrogate loss, last update.", t.ActorLoss)
		s.Gauge("adcache_critic_loss", "Critic TD squared error, last update.", t.CriticLoss)
	})
}
