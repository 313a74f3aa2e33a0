package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"adcache/internal/lsm"
	"adcache/internal/metrics"
	"adcache/internal/vfs"
)

// driveWindows pushes enough point traffic through the strategy callbacks
// to close n control windows (SyncTuning runs the controller inline).
func driveWindows(a *AdCache, n int) {
	ops := n * a.cfg.WindowSize
	for i := 0; i < ops; i++ {
		k := []byte(fmt.Sprintf("k%06d", i%64))
		if _, _, ok := a.GetCached(k); !ok {
			a.OnPointResult(k, []byte("value"), 2)
		}
	}
}

// TestMetricsRLTuningState checks that closing windows publishes the
// controller view: reward, losses, learning rate, and the applied params.
func TestMetricsRLTuningState(t *testing.T) {
	a := newTestAdCache(t, Config{WindowSize: 100})
	if ts := a.TuningState(); ts.Windows != 0 {
		t.Fatalf("tuning state before first window = %+v", ts)
	}
	driveWindows(a, 5)

	ts := a.TuningState()
	if ts.Windows != a.Windows() || ts.Windows < 5 {
		t.Fatalf("windows = %d (counter %d), want >= 5", ts.Windows, a.Windows())
	}
	// Agent updates start one window late (it needs a previous action).
	if ts.AgentSteps < ts.Windows-1 || ts.AgentSteps > ts.Windows {
		t.Errorf("agent steps = %d for %d windows", ts.AgentSteps, ts.Windows)
	}
	if ts.HEstimate <= 0 || ts.HSmoothed <= 0 {
		t.Errorf("hit-rate estimates not published: %+v", ts)
	}
	if ts.ActorLR <= 0 {
		t.Errorf("actor lr = %v", ts.ActorLR)
	}
	if ts.CriticLoss == 0 {
		t.Errorf("critic loss never published")
	}
	if ts.Params != a.CurrentParams() {
		t.Errorf("tuning params %+v diverge from applied %+v", ts.Params, a.CurrentParams())
	}
}

// TestMetricsRLGauges checks the adcache_* series end to end: registered
// via the same RegisterMetrics upgrade the engine uses, scraped from the
// registry, matching the mu-guarded state.
func TestMetricsRLGauges(t *testing.T) {
	a := newTestAdCache(t, Config{WindowSize: 100})
	reg := metrics.NewRegistry()
	var s lsm.CacheStrategy = a
	s.(interface{ RegisterMetrics(*metrics.Registry) }).RegisterMetrics(reg)
	driveWindows(a, 3)

	snap := reg.Snapshot()
	if got := snap["adcache_windows_total"].(int64); got != a.Windows() {
		t.Errorf("adcache_windows_total = %v, want %d", got, a.Windows())
	}
	ts := a.TuningState()
	for name, want := range map[string]float64{
		"adcache_range_ratio":     a.CurrentParams().RangeRatio,
		"adcache_point_threshold": a.CurrentParams().PointThreshold,
		"adcache_scan_b":          a.CurrentParams().ScanB,
		"adcache_reward":          ts.Reward,
		"adcache_h_estimate":      ts.HEstimate,
		"adcache_h_smoothed":      ts.HSmoothed,
		"adcache_actor_lr":        ts.ActorLR,
		"adcache_actor_loss":      ts.ActorLoss,
		"adcache_critic_loss":     ts.CriticLoss,
	} {
		got, ok := snap[name].(float64)
		if !ok || got != want {
			t.Errorf("%s = %v (ok=%v), want %v", name, got, ok, want)
		}
	}
	// Why the controller picked its parameters: the prior and the residual,
	// per parameter, agree with TuningState.
	if ts.Prior == (Params{}) {
		t.Error("tuning state carries no prior")
	}
	for _, ps := range paramSeries {
		for series, want := range map[string]float64{
			fmt.Sprintf("adcache_prior{param=%q}", ps.name):    ps.get(ts.Prior),
			fmt.Sprintf("adcache_residual{param=%q}", ps.name): ps.get(ts.Residual),
		} {
			if got, ok := snap[series].(float64); !ok || got != want {
				t.Errorf("%s = %v (ok=%v), want %v", series, got, ok, want)
			}
		}
	}
	// Cache traffic shows up in the aggregate and per-shard series.
	if hits := snap["cache_range_get_hits_total"].(int64); hits == 0 {
		t.Error("cache_range_get_hits_total = 0 after repeated lookups")
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `cache_block_shard_hits_total{shard="0"}`) {
		t.Error("per-shard block series missing from Prometheus output")
	}
}

// TestMetricsCountersUnified checks every strategy answers Counters() with
// the fields its caches own — the interface that replaced the type-switch.
func TestMetricsCountersUnified(t *testing.T) {
	key, val := []byte("k"), []byte("v")

	b := NewBlockOnly(1 << 20)
	b.BlockCache().Insert(7, 0, []byte("block"), 0, false)
	if _, ok := b.BlockCache().Get(7, 0); !ok {
		t.Fatal("block cache miss after insert")
	}
	if c := b.Counters(); c.BlockHits != 1 || c.BlockCapacity != 1<<20 || c.KVHits != 0 {
		t.Errorf("BlockOnly counters = %+v", c)
	}

	k := NewKVOnly(1 << 20)
	k.OnPointResult(key, val, 1)
	k.GetCached(key)
	k.GetCached([]byte("missing"))
	if c := k.Counters(); c.KVHits != 1 || c.KVMisses != 1 || c.BlockHits != 0 {
		t.Errorf("KVOnly counters = %+v", c)
	}

	r := NewRangeOnly(1<<20, "lru", nil)
	r.OnPointResult(key, val, 1)
	r.GetCached(key)
	if c := r.Counters(); c.RangeGetHits != 1 || c.RangeEntries != 1 {
		t.Errorf("RangeOnly counters = %+v", c)
	}

	a := newTestAdCache(t, Config{DisableAdmission: true})
	a.OnPointResult(key, val, 1)
	a.GetCached(key)
	if c := a.Counters(); c.RangeGetHits != 1 || c.BlockCapacity == 0 {
		t.Errorf("AdCache counters = %+v", c)
	}
}

// seriesCounters rebuilds the CacheCounters fields of one cache from its
// series, walking the cache's struct→series table, and checks on the way
// that every per-shard series sums to its aggregate.
func seriesCounters[S any](t *testing.T, snap map[string]any, rows []cacheSeries[S], shards int, c *lsm.CacheCounters) {
	t.Helper()
	value := func(name string) int64 {
		switch v := snap[name].(type) {
		case int64:
			return v
		case float64:
			return int64(v)
		}
		t.Errorf("series %s missing", name)
		return 0
	}
	for _, r := range rows {
		total := value(r.name)
		if r.set != nil {
			r.set(c, total)
		}
		if r.shardName == "" {
			continue
		}
		var sum int64
		for i := 0; i < shards; i++ {
			sum += value(fmt.Sprintf("%s{shard=\"%d\"}", r.shardName, i))
		}
		if sum != total {
			t.Errorf("%s shards sum to %d, %s says %d", r.shardName, sum, r.name, total)
		}
	}
}

// TestStatsMetricsAgreement runs the same traffic through a real engine
// under each of the seven strategies and checks that, once quiesced, the
// strategy's Counters() — what /v1/stats serves — is exactly what its
// series say, field by field from the one table both are built from.
func TestStatsMetricsAgreement(t *testing.T) {
	ad := newTestAdCache(t, Config{Capacity: 2 << 20, WindowSize: 200})
	for name, strategy := range map[string]lsm.CacheStrategy{
		"NoCache":            lsm.NoCache{},
		"BlockCache":         NewBlockOnly(2 << 20),
		"KVCache":            NewKVOnly(2 << 20),
		"RangeCache":         NewRangeOnly(2<<20, "lru", nil),
		"RangeCache+LeCaR":   NewRangeOnly(2<<20, "lecar", []string{"k000500"}),
		"RangeCache+Cacheus": NewRangeOnly(2<<20, "cacheus", nil),
		"AdCache":            ad,
	} {
		t.Run(name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			opts := lsm.DefaultOptions("db")
			opts.FS = vfs.NewMem()
			opts.Strategy = strategy
			opts.MetricsRegistry = reg
			opts.InlineCompaction = true
			db, err := lsm.Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if rm, ok := strategy.(interface{ RegisterMetrics(*metrics.Registry) }); ok {
				rm.RegisterMetrics(reg)
			}
			if strategy == ad {
				ad.Bind(db)
			}
			k := func(i int) []byte { return []byte(fmt.Sprintf("k%06d", i)) }
			for i := 0; i < 1000; i++ {
				if err := db.Put(k(i), bytes.Repeat([]byte{'v'}, 100)); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2000; i++ {
				if _, _, err := db.Get(k(i * 7 % 1100)); err != nil {
					t.Fatal(err)
				}
				if i%10 == 0 {
					if _, err := db.Scan(k(i%900), 16); err != nil {
						t.Fatal(err)
					}
				}
			}

			snap := reg.Snapshot()
			want := strategy.Counters()
			var got lsm.CacheCounters
			switch s := strategy.(type) {
			case *BlockOnly:
				seriesCounters(t, snap, blockSeries, len(s.cache.ShardStats()), &got)
			case *KVOnly:
				seriesCounters(t, snap, kvSeries, len(s.cache.ShardStats()), &got)
			case *RangeOnly:
				seriesCounters(t, snap, rangeSeries, len(s.cache.ShardStats()), &got)
			case *AdCache:
				seriesCounters(t, snap, blockSeries, len(s.block.ShardStats()), &got)
				seriesCounters(t, snap, rangeSeries, len(s.rng.ShardStats()), &got)
				if w := snap["adcache_windows_total"]; w != s.Windows() || s.Windows() == 0 {
					t.Errorf("adcache_windows_total = %v, controller says %d", w, s.Windows())
				}
				for _, b := range s.Budgets() {
					if v := snap[fmt.Sprintf("adcache_budget_actual_bytes{component=%q}", b.Component)]; v != float64(b.ActualBytes) {
						t.Errorf("budget actual %s = %v, ledger says %d", b.Component, v, b.ActualBytes)
					}
				}
			}
			if got != want {
				t.Errorf("series say %+v\nCounters() says %+v", got, want)
			}
			if name != "NoCache" && got == (lsm.CacheCounters{}) {
				t.Error("traffic moved no cache counter")
			}
		})
	}
}
