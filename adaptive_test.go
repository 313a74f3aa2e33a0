package adcache_test

import (
	"fmt"
	"testing"

	"adcache"
	"adcache/internal/harness"
	"adcache/internal/workload"
)

// These integration tests assert the paper's qualitative claims end-to-end
// on small workloads: the controller moves the boundary in the right
// direction per workload, result caches survive compaction, and admission
// control bounds scan pollution.

func adaptRunner(t *testing.T, strategy adcache.Strategy) *harness.Runner {
	return adaptRunnerAt(t, strategy, 0.10)
}

func adaptRunnerAt(t *testing.T, strategy adcache.Strategy, cacheFrac float64) *harness.Runner {
	t.Helper()
	r, err := harness.NewRunner(harness.Config{
		NumKeys: 8000, ValueSize: 100, CacheFrac: cacheFrac,
		Strategy: strategy, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// TestControllerMovesBoundaryPerWorkload runs Figure 10's shift — point
// lookups, then scans. The point phase must leave the boundary on the range
// side. After the shift the paper converts the entire range cache into a
// block cache; this engine's controlled experiments
// (internal/core/calibration.go) agree for pure short scans at a 25 % budget
// and for short + long scans at 10 %, and there the boundary must cross to
// the block side. For pure short scans at 10 % they measure the range
// cache, admitting one entry per access, reading fewer blocks, so the
// boundary may stay; the phase must then be served at least as well as the
// paper's answer, the whole budget as a block cache with the same history.
func TestControllerMovesBoundaryPerWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("adaptation runs are slow")
	}
	for _, tc := range []struct {
		name      string
		cacheFrac float64
		scans     workload.Mix
		blockSide bool
	}{
		{"short_scans_at_10pct", 0.10, workload.MixShortScan, false},
		{"short_scans_at_25pct", 0.25, workload.MixShortScan, true},
		{"short_and_long_scans_at_10pct", 0.10, workload.Mix{ShortScanPct: 50, LongScanPct: 50}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			shift := func(strategy adcache.Strategy) *harness.Runner {
				r := adaptRunnerAt(t, strategy, tc.cacheFrac)
				if err := r.Warm(workload.MixPointLookup, 20_000); err != nil {
					t.Fatal(err)
				}
				if ad := r.DB.AdCache(); ad != nil {
					if ratio := ad.CurrentParams().RangeRatio; ratio < 0.5 {
						t.Fatalf("point workload learned range ratio %.2f, want > 0.5", ratio)
					}
				}
				if err := r.Warm(tc.scans, 30_000); err != nil {
					t.Fatal(err)
				}
				return r
			}
			r := shift(adcache.StrategyAdCache)
			ratio := r.DB.AdCache().CurrentParams().RangeRatio
			if tc.blockSide {
				if ratio > 0.5 {
					t.Fatalf("scan workload kept range ratio %.2f, want < 0.5", ratio)
				}
				return
			}
			got, err := r.Run(tc.scans, 10_000)
			if err != nil {
				t.Fatal(err)
			}
			block, err := shift(adcache.StrategyBlock).Run(tc.scans, 10_000)
			if err != nil {
				t.Fatal(err)
			}
			if got.HitRate < block.HitRate {
				t.Fatalf("after the shift AdCache (range ratio %.2f) hit %.4f, below the all-block cache's %.4f",
					ratio, got.HitRate, block.HitRate)
			}
		})
	}
}

func TestRangeCacheSurvivesCompactionBlockCacheDoesNot(t *testing.T) {
	if testing.Short() {
		t.Skip("adaptation runs are slow")
	}
	// Warm both caches under reads, then write heavily to force
	// compactions, then measure how each cache serves the same reads.
	readMix := workload.Mix{GetPct: 50, ShortScanPct: 50}
	measure := func(strategy adcache.Strategy) (before, after float64) {
		r := adaptRunner(t, strategy)
		if err := r.Warm(readMix, 10_000); err != nil {
			t.Fatal(err)
		}
		res1, err := r.Run(readMix, 5_000)
		if err != nil {
			t.Fatal(err)
		}
		// Write churn: rewrite much of the key space.
		if err := r.Warm(workload.Mix{WritePct: 100}, 12_000); err != nil {
			t.Fatal(err)
		}
		m := r.DB.LSM().Metrics()
		if m.Compactions == 0 {
			t.Fatal("write churn caused no compactions; test premise broken")
		}
		res2, err := r.Run(readMix, 5_000)
		if err != nil {
			t.Fatal(err)
		}
		return res1.HitRate, res2.HitRate
	}

	blockBefore, blockAfter := measure(adcache.StrategyBlock)
	rangeBefore, rangeAfter := measure(adcache.StrategyRange)

	blockDrop := blockBefore - blockAfter
	rangeDrop := rangeBefore - rangeAfter
	// The result cache is compaction-immune; the block cache loses its
	// file-offset-keyed entries. Allow noise but require the asymmetry.
	if blockDrop < rangeDrop-0.02 {
		t.Fatalf("compaction hurt block cache (%.3f→%.3f) less than range cache (%.3f→%.3f)",
			blockBefore, blockAfter, rangeBefore, rangeAfter)
	}
}

func TestPartialAdmissionBoundsLongScanFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("adaptation runs are slow")
	}
	// One long scan into a warmed AdCache range cache must admit at most
	// its partial quota, not all 64 entries.
	r := adaptRunner(t, adcache.StrategyAdCache)
	if err := r.Warm(workload.MixPointLookup, 15_000); err != nil {
		t.Fatal(err)
	}
	ad := r.DB.AdCache()
	p := ad.CurrentParams()
	if p.ScanA >= workload.LongScanLen {
		t.Skipf("learned a=%d admits whole long scans; nothing to bound", p.ScanA)
	}
	entriesBefore := ad.Range().Stats().Entries
	if _, err := r.DB.Scan(workload.Key(4000), workload.LongScanLen); err != nil {
		t.Fatal(err)
	}
	added := ad.Range().Stats().Entries - entriesBefore
	expect := p.ScanA + int(p.ScanB*float64(workload.LongScanLen-p.ScanA)) + 2
	if added > expect {
		t.Fatalf("one long scan added %d entries, partial admission bound ≈%d", added, expect)
	}
}

// TestAdmissionFiltersOneOffKeys: where the calibrated prior asks for
// point admission control (a 5 % cache share of a Zipfian point mix), the
// learning controller keeps a threshold that refuses most one-off cold
// keys. The range cache is full after the warm-up, so an admission shows
// as an eviction as often as a new entry, and both are counted.
func TestAdmissionFiltersOneOffKeys(t *testing.T) {
	if testing.Short() {
		t.Skip("adaptation runs are slow")
	}
	r := adaptRunnerAt(t, adcache.StrategyAdCache, 0.05)
	// Zipfian points establish frequency mass.
	if err := r.Warm(workload.MixPointLookup, 15_000); err != nil {
		t.Fatal(err)
	}
	ad := r.DB.AdCache()
	if ad.CurrentParams().PointThreshold <= 0 {
		t.Fatalf("point threshold %v at a 5 %% share, want a nonzero one", ad.CurrentParams().PointThreshold)
	}
	before := ad.Range().Stats()
	// One-off cold keys (read once each) should mostly be rejected.
	for i := 0; i < 200; i++ {
		if _, _, err := r.DB.Get(workload.Key(7000 + i*3)); err != nil {
			t.Fatal(err)
		}
	}
	after := ad.Range().Stats()
	admitted := after.Entries - before.Entries + int(after.Evictions-before.Evictions)
	if admitted > 50 {
		t.Fatalf("admission admitted %d of 200 one-off keys", admitted)
	}
}

func TestSixStrategiesProduceDistinctIOBehaviour(t *testing.T) {
	if testing.Short() {
		t.Skip("comparison runs are slow")
	}
	// A coarse sanity matrix: on a balanced mix, block-structured caches
	// must beat the no-scan KV cache, and every cache must beat no cache.
	reads := map[adcache.Strategy]float64{}
	for _, s := range []adcache.Strategy{adcache.StrategyNone, adcache.StrategyKV, adcache.StrategyBlock} {
		r := adaptRunner(t, s)
		if err := r.Warm(workload.MixBalanced, 10_000); err != nil {
			t.Fatal(err)
		}
		res, err := r.Run(workload.MixBalanced, 10_000)
		if err != nil {
			t.Fatal(err)
		}
		reads[s] = res.ReadsPerOp()
	}
	if reads[adcache.StrategyBlock] >= reads[adcache.StrategyNone] {
		t.Fatalf("block cache did not reduce reads: %v", reads)
	}
	if reads[adcache.StrategyKV] >= reads[adcache.StrategyNone] {
		t.Fatalf("kv cache did not reduce reads: %v", reads)
	}
	if reads[adcache.StrategyBlock] >= reads[adcache.StrategyKV] {
		t.Fatalf("block cache should beat kv cache on a scan-bearing mix: %v", reads)
	}
	_ = fmt.Sprintf("%v", reads)
}
