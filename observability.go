package adcache

import (
	"adcache/internal/core"
	"adcache/internal/lsm"
	"adcache/internal/metrics"
)

// MetricsSnapshot is the unified observability snapshot of one DB: engine
// shape and throughput counters, the strategy's cache counters, and — when
// AdCache is running — the controller state. /stats serves this struct
// verbatim.
type MetricsSnapshot struct {
	Strategy string      `json:"strategy"`
	Engine   lsm.Metrics `json:"engine"`
	// SSTReads is the paper's headline I/O metric: SST block reads issued
	// by queries (flush/compaction/recovery I/O excluded).
	SSTReads       int64            `json:"sst_reads"`
	BlockCacheHits int64            `json:"block_cache_hits"`
	Cache          CacheCounters    `json:"cache"`
	AdCache        *AdCacheSnapshot `json:"adcache,omitempty"`
}

// AdCacheSnapshot is the controller portion of a MetricsSnapshot.
type AdCacheSnapshot struct {
	Params  core.Params      `json:"params"`
	Tuning  core.TuningState `json:"tuning"`
	Windows int64            `json:"windows"`
	// Budgets is the cache budget's ledger: per-component byte targets and
	// actuals for blockcache and rangecache.
	Budgets []core.Budget `json:"budgets"`
}

// Metrics returns the unified snapshot. Safe to call concurrently with
// traffic; counters are point-in-time reads, not a consistent cut.
func (d *DB) Metrics() MetricsSnapshot {
	m := MetricsSnapshot{
		Strategy:       d.kind.String(),
		Engine:         d.inner.Metrics(),
		SSTReads:       d.inner.QueryBlockReads(),
		BlockCacheHits: d.inner.QueryBlockHits(),
		Cache:          d.strategy.Counters(),
	}
	if d.ad != nil {
		m.AdCache = &AdCacheSnapshot{
			Params:  d.ad.CurrentParams(),
			Tuning:  d.ad.TuningState(),
			Windows: d.ad.Windows(),
			Budgets: d.ad.Budgets(),
		}
	}
	return m
}

// Registry returns the DB's metrics registry — engine, cache, and strategy
// series all live here. Servers expose it as /metrics (Prometheus text)
// and /debug/vars; callers may register their own series alongside.
func (d *DB) Registry() *metrics.Registry { return d.inner.Registry() }

// registerMetrics registers the public layer's collector (strategy
// identity) and lets the strategy register its own through the optional
// RegisterMetrics interface — the same mechanism external CacheStrategy
// implementations can adopt.
func (d *DB) registerMetrics(reg *metrics.Registry) {
	info := `adcache_strategy_info{strategy="` + d.kind.String() + `"}`
	reg.Collect(func(s *metrics.Sink) {
		s.Gauge(info, "Configured cache strategy (value is always 1).", 1)
	})
	if rm, ok := d.strategy.(interface{ RegisterMetrics(*metrics.Registry) }); ok {
		rm.RegisterMetrics(reg)
	}
}
