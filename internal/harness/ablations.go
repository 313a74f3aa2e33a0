package harness

import (
	"fmt"
	"strings"
	"time"

	"adcache"
	"adcache/internal/workload"
)

// AblationRow is one design-choice comparison.
type AblationRow struct {
	Study   string
	Variant string
	Result  Result
	Note    string
}

// RunAblations measures the design choices DESIGN.md calls out, beyond the
// paper's own Figure 11(b) ablation:
//
//   - boundary hysteresis: suppressing exploration jitter at the cache
//     boundary vs applying every sampled ratio;
//   - online residual learning vs acting on the calibrated prior alone
//     (a Frozen agent), under a window budget comparable to the experiments;
//   - Leaper-style prefetch: re-populating the block cache after
//     compactions under a write-heavy mix;
//   - sharded range cache: §4.4's partitioned locking vs a single shard
//     under concurrent clients (wall-clock, not simulated, throughput).
func RunAblations(sc Scale, report func(AblationRow)) ([]AblationRow, error) {
	var rows []AblationRow
	add := func(row AblationRow) {
		rows = append(rows, row)
		if report != nil {
			report(row)
		}
	}

	// Study 1: boundary hysteresis.
	for _, disabled := range []bool{false, true} {
		cfg := Config{
			NumKeys: sc.NumKeys, ValueSize: sc.ValueSize,
			CacheFrac: 0.10, Strategy: adcache.StrategyAdCache, Seed: sc.Seed,
		}
		cfg.AdCache.DisableHysteresis = disabled
		r, err := NewRunner(cfg)
		if err != nil {
			return nil, err
		}
		if err := r.Warm(workload.MixBalanced, sc.WarmOps); err != nil {
			r.Close()
			return nil, err
		}
		res, err := r.Run(workload.MixBalanced, sc.MeasureOps)
		evics := r.DB.CacheCounters().RangeEvictions + r.DB.CacheCounters().BlockEvictions
		r.Close()
		if err != nil {
			return nil, err
		}
		variant := "hysteresis on"
		if disabled {
			variant = "hysteresis off"
		}
		add(AblationRow{
			Study: "boundary-hysteresis", Variant: variant, Result: res,
			Note: fmt.Sprintf("evictions=%d", evics),
		})
	}

	// Study 2: online residual learning vs the frozen prior.
	for _, frozen := range []bool{false, true} {
		cfg := Config{
			NumKeys: sc.NumKeys, ValueSize: sc.ValueSize,
			CacheFrac: 0.10, Strategy: adcache.StrategyAdCache, Seed: sc.Seed,
		}
		cfg.AdCache.RL.Frozen = frozen
		r, err := NewRunner(cfg)
		if err != nil {
			return nil, err
		}
		if err := r.Warm(workload.MixPointLookup, sc.WarmOps); err != nil {
			r.Close()
			return nil, err
		}
		res, err := r.Run(workload.MixPointLookup, sc.MeasureOps)
		var ratio float64
		if ad := r.DB.AdCache(); ad != nil {
			ratio = ad.CurrentParams().RangeRatio
		}
		r.Close()
		if err != nil {
			return nil, err
		}
		variant := "online residual"
		if frozen {
			variant = "frozen prior"
		}
		add(AblationRow{
			Study: "residual-learning", Variant: variant, Result: res,
			Note: fmt.Sprintf("final ratio=%.2f", ratio),
		})
	}

	// Study 3: Leaper-style post-compaction prefetch on the block cache.
	writeHeavy := workload.Mix{GetPct: 40, ShortScanPct: 10, WritePct: 50}
	for _, prefetch := range []int{0, 32} {
		r, err := NewRunner(Config{
			NumKeys: sc.NumKeys, ValueSize: sc.ValueSize,
			CacheFrac: 0.10, Strategy: adcache.StrategyBlock, Seed: sc.Seed,
			PrefetchOnCompaction: prefetch,
		})
		if err != nil {
			return nil, err
		}
		if err := r.Warm(writeHeavy, sc.WarmOps); err != nil {
			r.Close()
			return nil, err
		}
		res, err := r.Run(writeHeavy, sc.MeasureOps)
		r.Close()
		if err != nil {
			return nil, err
		}
		variant := "no prefetch"
		if prefetch > 0 {
			variant = fmt.Sprintf("prefetch %d blocks", prefetch)
		}
		add(AblationRow{Study: "compaction-prefetch", Variant: variant, Result: res})
	}

	// Study 4: sharded vs single-lock range cache, concurrent clients.
	for _, sharded := range []bool{true, false} {
		cfg := Config{
			NumKeys: sc.NumKeys, ValueSize: sc.ValueSize,
			CacheFrac: 0.10, Strategy: adcache.StrategyRange, Seed: sc.Seed,
		}
		if sharded {
			cfg.RangeShards = defaultShards(sc.NumKeys)
		}
		r, err := NewRunner(cfg)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		res, _, err := r.RunConcurrent(workload.MixBalanced, sc.MeasureOps/8, 8)
		wall := time.Since(start)
		r.Close()
		if err != nil {
			return nil, err
		}
		variant := "single shard"
		if sharded {
			variant = "8 range shards"
		}
		add(AblationRow{
			Study: "range-cache-sharding", Variant: variant, Result: res,
			Note: fmt.Sprintf("wall=%s", wall.Round(time.Millisecond)),
		})
	}

	return rows, nil
}

// FormatAblations renders the design-choice studies.
func FormatAblations(rows []AblationRow) string {
	var b strings.Builder
	b.WriteString("Design ablations (beyond the paper's Figure 11b)\n")
	last := ""
	for _, r := range rows {
		if r.Study != last {
			fmt.Fprintf(&b, "%s:\n", r.Study)
			last = r.Study
		}
		fmt.Fprintf(&b, "  %-24s hit=%.3f reads/op=%.2f qps=%.0f %s\n",
			r.Variant, r.Result.HitRate, r.Result.ReadsPerOp(), r.Result.QPS, r.Note)
	}
	return b.String()
}
