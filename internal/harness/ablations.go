package harness

import (
	"fmt"
	"strings"

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
//     (a Frozen agent), under a window budget comparable to the experiments.
//
// The range cache's shards (§4.4) are measured by the rangecache package's
// BenchmarkParallelMix, not here: the cache sizes its own shard set.
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
		var evics int64
		res, err := measure(cfg, sc, workload.MixBalanced, func(r *Runner) {
			evics = r.DB.CacheCounters().RangeEvictions + r.DB.CacheCounters().BlockEvictions
		})
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
		var ratio float64
		res, err := measure(cfg, sc, workload.MixPointLookup, func(r *Runner) {
			ratio = r.DB.AdCache().CurrentParams().RangeRatio
		})
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
