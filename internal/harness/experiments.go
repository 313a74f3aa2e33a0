package harness

import (
	"fmt"
	"sort"
	"strings"

	"adcache"
	"adcache/internal/core"
	"adcache/internal/rl"
	"adcache/internal/workload"
)

// Scale sizes an experiment. The paper runs 100 GB databases and 50M-op
// phases; these defaults reproduce the same cache:database ratios and
// enough control windows for the agent to adapt, at laptop scale.
type Scale struct {
	NumKeys    int
	ValueSize  int
	WarmOps    int
	MeasureOps int
	PhaseOps   int // ops per dynamic phase (Figure 8)
	Seed       int64
}

// DefaultScale is used by cmd/adbench. The warm-up is long enough for the
// controller to converge AND for the winning cache to fill at the largest
// (25 %) size — the paper warms over millions of operations.
func DefaultScale() Scale {
	return Scale{NumKeys: 50_000, ValueSize: 100, WarmOps: 150_000, MeasureOps: 60_000, PhaseOps: 60_000, Seed: 1}
}

// QuickScale is used by tests and testing.B benchmarks.
func QuickScale() Scale {
	return Scale{NumKeys: 10_000, ValueSize: 100, WarmOps: 10_000, MeasureOps: 10_000, PhaseOps: 12_000, Seed: 1}
}

// NamedMix is a workload mix with the name experiments report it under.
type NamedMix struct {
	Name string
	Mix  workload.Mix
}

// StaticWorkloads are the §5.2 workloads in paper order.
func StaticWorkloads() []NamedMix {
	return []NamedMix{
		{"PointLookup", workload.MixPointLookup},
		{"ShortScan", workload.MixShortScan},
		{"Balanced", workload.MixBalanced},
		{"LongScan", workload.MixLongScan},
	}
}

// CacheFracs are the cache sizes of Figure 7, as fractions of the database.
func CacheFracs() []float64 { return []float64{0.01, 0.02, 0.05, 0.10, 0.25} }

// Cell is one measured configuration.
type Cell struct {
	Workload  string
	CacheFrac float64
	Skew      float64
	Strategy  string
	Result    Result
}

// RunFig7 regenerates Figure 7: hit rate of every strategy across cache
// sizes under the four static workloads.
func RunFig7(sc Scale, report func(Cell)) ([]Cell, error) {
	var cells []Cell
	for _, w := range StaticWorkloads() {
		for _, frac := range CacheFracs() {
			for _, s := range adcache.Strategies() {
				r, err := NewRunner(Config{
					NumKeys: sc.NumKeys, ValueSize: sc.ValueSize,
					CacheFrac: frac, Strategy: s, Seed: sc.Seed,
				})
				if err != nil {
					return nil, err
				}
				if err := r.Warm(w.Mix, sc.WarmOps); err != nil {
					r.Close()
					return nil, err
				}
				res, err := r.Run(w.Mix, sc.MeasureOps)
				r.Close()
				if err != nil {
					return nil, err
				}
				cell := Cell{Workload: w.Name, CacheFrac: frac, Strategy: s.String(), Result: res}
				cells = append(cells, cell)
				if report != nil {
					report(cell)
				}
			}
		}
	}
	return cells, nil
}

// FormatFig7 renders Figure 7 cells as one table per workload.
func FormatFig7(cells []Cell) string {
	var b strings.Builder
	for _, w := range StaticWorkloads() {
		fmt.Fprintf(&b, "Figure 7 — %s: hit rate by cache size\n", w.Name)
		fmt.Fprintf(&b, "%-20s", "strategy\\cache")
		for _, f := range CacheFracs() {
			fmt.Fprintf(&b, "%8.0f%%", f*100)
		}
		b.WriteString("\n")
		for _, s := range adcache.Strategies() {
			fmt.Fprintf(&b, "%-20s", s.String())
			for _, f := range CacheFracs() {
				for _, c := range cells {
					if c.Workload == w.Name && c.CacheFrac == f && c.Strategy == s.String() {
						fmt.Fprintf(&b, "%9.3f", c.Result.HitRate)
					}
				}
			}
			b.WriteString("\n")
		}
		b.WriteString("\n")
	}
	return b.String()
}

// PhaseResult is one (phase, strategy) measurement of Figure 8.
type PhaseResult struct {
	Phase    string
	Strategy string
	Result   Result
}

// Fig8Strategies are the schemes of Figure 8 / Table 4.
func Fig8Strategies() []adcache.Strategy {
	return []adcache.Strategy{
		adcache.StrategyBlock, adcache.StrategyRange,
		adcache.StrategyRangeLeCaR, adcache.StrategyRangeCacheus,
		adcache.StrategyAdCache,
	}
}

// RunFig8 regenerates Figure 8: each strategy runs the dynamic phase
// schedule A→F on one continuously-open database; throughput and hit rate
// are measured per phase.
func RunFig8(sc Scale, report func(PhaseResult)) ([]PhaseResult, error) {
	var out []PhaseResult
	for _, s := range Fig8Strategies() {
		r, err := NewRunner(Config{
			NumKeys: sc.NumKeys, ValueSize: sc.ValueSize,
			CacheFrac: 0.10, Strategy: s, Seed: sc.Seed,
		})
		if err != nil {
			return nil, err
		}
		for _, phase := range workload.DynamicPhases() {
			res, err := r.Run(phase.Mix, sc.PhaseOps)
			if err != nil {
				r.Close()
				return nil, err
			}
			pr := PhaseResult{Phase: phase.Name, Strategy: s.String(), Result: res}
			out = append(out, pr)
			if report != nil {
				report(pr)
			}
		}
		r.Close()
	}
	return out, nil
}

// Rankings computes Table 4 from Figure 8 results: per-phase ranks
// (1 = best) of throughput and hit rate per strategy.
type Rankings struct {
	Phases     []string
	Strategies []string
	// Throughput[phase][strategy] and HitRate[phase][strategy] are ranks.
	Throughput map[string]map[string]int
	HitRate    map[string]map[string]int
}

// RankFig8 derives Table 4 from Figure 8 measurements.
func RankFig8(results []PhaseResult) Rankings {
	rk := Rankings{
		Throughput: map[string]map[string]int{},
		HitRate:    map[string]map[string]int{},
	}
	seenPhase := map[string]bool{}
	seenStrat := map[string]bool{}
	byPhase := map[string][]PhaseResult{}
	for _, pr := range results {
		byPhase[pr.Phase] = append(byPhase[pr.Phase], pr)
		if !seenPhase[pr.Phase] {
			seenPhase[pr.Phase] = true
			rk.Phases = append(rk.Phases, pr.Phase)
		}
		if !seenStrat[pr.Strategy] {
			seenStrat[pr.Strategy] = true
			rk.Strategies = append(rk.Strategies, pr.Strategy)
		}
	}
	for phase, prs := range byPhase {
		rank := func(metric func(PhaseResult) float64) map[string]int {
			sorted := append([]PhaseResult(nil), prs...)
			sort.Slice(sorted, func(i, j int) bool {
				return metric(sorted[i]) > metric(sorted[j])
			})
			m := map[string]int{}
			for i, pr := range sorted {
				m[pr.Strategy] = i + 1
			}
			return m
		}
		rk.Throughput[phase] = rank(func(pr PhaseResult) float64 { return pr.Result.QPS })
		rk.HitRate[phase] = rank(func(pr PhaseResult) float64 { return pr.Result.HitRate })
	}
	return rk
}

// FormatFig8 renders the phase measurements and the Table 4 rankings.
func FormatFig8(results []PhaseResult) string {
	var b strings.Builder
	b.WriteString("Figure 8 — dynamic workload A→F (QPS / hit rate)\n")
	fmt.Fprintf(&b, "%-8s", "phase")
	for _, s := range Fig8Strategies() {
		fmt.Fprintf(&b, "%24s", s.String())
	}
	b.WriteString("\n")
	for _, phase := range workload.DynamicPhases() {
		fmt.Fprintf(&b, "%-8s", phase.Name)
		for _, s := range Fig8Strategies() {
			for _, pr := range results {
				if pr.Phase == phase.Name && pr.Strategy == s.String() {
					fmt.Fprintf(&b, "%15.0f/%7.3f", pr.Result.QPS, pr.Result.HitRate)
				}
			}
		}
		b.WriteString("\n")
	}

	rk := RankFig8(results)
	b.WriteString("\nTable 4 — rankings (throughput/hit rate), lower is better\n")
	fmt.Fprintf(&b, "%-8s", "phase")
	for _, s := range Fig8Strategies() {
		fmt.Fprintf(&b, "%24s", s.String())
	}
	b.WriteString("\n")
	sumT := map[string]int{}
	sumH := map[string]int{}
	for _, phase := range rk.Phases {
		fmt.Fprintf(&b, "%-8s", phase)
		for _, s := range Fig8Strategies() {
			t := rk.Throughput[phase][s.String()]
			h := rk.HitRate[phase][s.String()]
			sumT[s.String()] += t
			sumH[s.String()] += h
			fmt.Fprintf(&b, "%21d/%d", t, h)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "%-8s", "avg")
	n := len(rk.Phases)
	for _, s := range Fig8Strategies() {
		fmt.Fprintf(&b, "%19.1f/%.1f", float64(sumT[s.String()])/float64(n), float64(sumH[s.String()])/float64(n))
	}
	b.WriteString("\n")
	return b.String()
}

// Fig9Skews are the Zipfian skews of Figure 9.
func Fig9Skews() []float64 { return []float64{0.6, 0.8, 0.9, 1.0, 1.1, 1.2} }

// Fig9Mix is the §5.4 skewness workload: 50% updates with equal point
// lookups and short scans.
func Fig9Mix() workload.Mix {
	return workload.Mix{GetPct: 25, ShortScanPct: 25, WritePct: 50}
}

// RunFig9 regenerates Figure 9: hit rate across workload skewness.
func RunFig9(sc Scale, report func(Cell)) ([]Cell, error) {
	var cells []Cell
	for _, skew := range Fig9Skews() {
		for _, s := range adcache.Strategies() {
			r, err := NewRunner(Config{
				NumKeys: sc.NumKeys, ValueSize: sc.ValueSize,
				CacheFrac: 0.10, Strategy: s, Seed: sc.Seed,
				PointSkew: skew, ScanSkew: skew,
			})
			if err != nil {
				return nil, err
			}
			mix := Fig9Mix()
			if err := r.Warm(mix, sc.WarmOps); err != nil {
				r.Close()
				return nil, err
			}
			res, err := r.Run(mix, sc.MeasureOps)
			r.Close()
			if err != nil {
				return nil, err
			}
			cell := Cell{Workload: "Skew", Skew: skew, Strategy: s.String(), Result: res}
			cells = append(cells, cell)
			if report != nil {
				report(cell)
			}
		}
	}
	return cells, nil
}

// FormatFig9 renders the skewness sweep.
func FormatFig9(cells []Cell) string {
	var b strings.Builder
	b.WriteString("Figure 9 — hit rate by workload skewness (50% update mix)\n")
	fmt.Fprintf(&b, "%-20s", "strategy\\skew")
	for _, sk := range Fig9Skews() {
		fmt.Fprintf(&b, "%8.1f", sk)
	}
	b.WriteString("\n")
	for _, s := range adcache.Strategies() {
		fmt.Fprintf(&b, "%-20s", s.String())
		for _, sk := range Fig9Skews() {
			for _, c := range cells {
				if c.Skew == sk && c.Strategy == s.String() {
					fmt.Fprintf(&b, "%8.3f", c.Result.HitRate)
				}
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Fig10Series is one convergence curve: per-window estimated hit rate
// around a workload shift, plus the evolving control parameters.
type Fig10Series struct {
	Label  string
	Traces []core.WindowTrace
}

// RunFig10 regenerates Figure 10: the system is warmed on a read-heavy
// (point) workload and shifted to a short-scan-heavy workload. Panel (a)
// varies the window size; panel (b) varies α; panel (c) is the parameter
// evolution of the default configuration. The "prior(frozen)" variant acts
// on the calibrated prior alone (no online learning).
func RunFig10(sc Scale) (windowPanel, alphaPanel []Fig10Series, paramPanel Fig10Series, err error) {
	run := func(label string, windowSize int, alpha float64, frozen bool) (Fig10Series, error) {
		cfg := Config{
			NumKeys: sc.NumKeys, ValueSize: sc.ValueSize,
			CacheFrac: 0.10, Strategy: adcache.StrategyAdCache, Seed: sc.Seed,
		}
		cfg.AdCache.WindowSize = windowSize
		cfg.AdCache.Alpha = alpha
		cfg.AdCache.RecordTrace = true
		cfg.AdCache.RL = rl.DefaultConfig()
		cfg.AdCache.RL.Frozen = frozen
		r, err := NewRunner(cfg)
		if err != nil {
			return Fig10Series{}, err
		}
		defer r.Close()
		if err := r.Warm(workload.MixPointLookup, sc.WarmOps); err != nil {
			return Fig10Series{}, err
		}
		if err := r.Warm(workload.MixShortScan, sc.MeasureOps); err != nil {
			return Fig10Series{}, err
		}
		return Fig10Series{Label: label, Traces: r.DB.AdCache().Trace()}, nil
	}

	for _, ws := range []int{100, 1000, 10000} {
		s, err := run(fmt.Sprintf("window=%d", ws), ws, 0.9, false)
		if err != nil {
			return nil, nil, Fig10Series{}, err
		}
		windowPanel = append(windowPanel, s)
	}
	s, err := run("prior(frozen)", 1000, 0.9, true)
	if err != nil {
		return nil, nil, Fig10Series{}, err
	}
	windowPanel = append(windowPanel, s)

	for _, alpha := range []float64{0.001, 0.5, 0.9} { // 0.001 ≈ the paper's α=0
		s, err := run(fmt.Sprintf("alpha=%.1f", alpha), 1000, alpha, false)
		if err != nil {
			return nil, nil, Fig10Series{}, err
		}
		alphaPanel = append(alphaPanel, s)
	}

	paramPanel, err = run("params(window=1000,alpha=0.9)", 1000, 0.9, false)
	if err != nil {
		return nil, nil, Fig10Series{}, err
	}
	return windowPanel, alphaPanel, paramPanel, nil
}

// FormatFig10 renders the three panels as series tables.
func FormatFig10(windowPanel, alphaPanel []Fig10Series, paramPanel Fig10Series) string {
	var b strings.Builder
	series := func(title string, panel []Fig10Series) {
		fmt.Fprintf(&b, "Figure 10 — %s (per-window estimated hit rate)\n", title)
		for _, s := range panel {
			fmt.Fprintf(&b, "  %-22s", s.Label)
			step := len(s.Traces)/16 + 1
			for i := 0; i < len(s.Traces); i += step {
				fmt.Fprintf(&b, " %.2f", s.Traces[i].HEstimate)
			}
			b.WriteString("\n")
		}
		b.WriteString("\n")
	}
	series("impact of window size", windowPanel)
	series("impact of smoothing factor α", alphaPanel)

	b.WriteString("Figure 10 — parameter evolution (window=1000, α=0.9)\n")
	b.WriteString("  window  rangeRatio  pointThr  scanA  scanB  hEst\n")
	step := len(paramPanel.Traces)/24 + 1
	for i := 0; i < len(paramPanel.Traces); i += step {
		tr := paramPanel.Traces[i]
		fmt.Fprintf(&b, "  %6d  %10.2f  %8.4f  %5d  %5.2f  %.3f\n",
			i, tr.Params.RangeRatio, tr.Params.PointThreshold, tr.Params.ScanA, tr.Params.ScanB, tr.HEstimate)
	}
	return b.String()
}

// Fig11aPoint is one (clients, per-client QPS) measurement.
type Fig11aPoint struct {
	Clients      int
	PerClientQPS float64
	Result       Result
}

// RunFig11a regenerates Figure 11(a): per-client throughput as the client
// count grows, with online training active (asynchronous, as deployed).
func RunFig11a(sc Scale, report func(Fig11aPoint)) ([]Fig11aPoint, error) {
	var out []Fig11aPoint
	for _, clients := range []int{1, 2, 4, 8, 16, 32} {
		r, err := NewRunner(fig11aConfig(sc))
		if err != nil {
			return nil, err
		}
		opsPerClient := sc.MeasureOps / 4
		res, perClient, err := r.RunConcurrent(workload.MixBalanced, opsPerClient, clients)
		r.Close()
		if err != nil {
			return nil, err
		}
		p := Fig11aPoint{Clients: clients, PerClientQPS: perClient, Result: res}
		out = append(out, p)
		if report != nil {
			report(p)
		}
	}
	return out, nil
}

// fig11aConfig is Figure 11a's runner configuration. It runs the production
// asynchronous tuner and background write path: the point of the experiment
// is that training does not interfere with serving.
func fig11aConfig(sc Scale) Config {
	return Config{
		NumKeys: sc.NumKeys, ValueSize: sc.ValueSize,
		CacheFrac: 0.10, Strategy: adcache.StrategyAdCache, Seed: sc.Seed,
		RangeShards: defaultShards(sc.NumKeys),
		AsyncTuning: true,
	}
}

// defaultShards splits the key space into 8 range shards (§4.4).
func defaultShards(numKeys int) []string {
	var splits []string
	for i := 1; i < 8; i++ {
		splits = append(splits, string(workload.Key(numKeys*i/8)))
	}
	return splits
}

// FormatFig11a renders the scaling table.
func FormatFig11a(points []Fig11aPoint) string {
	var b strings.Builder
	b.WriteString("Figure 11a — per-client QPS vs client count (training overhead)\n")
	b.WriteString("  clients  per-client QPS  total QPS\n")
	for _, p := range points {
		fmt.Fprintf(&b, "  %7d  %14.0f  %9.0f\n", p.Clients, p.PerClientQPS, p.Result.QPS)
	}
	return b.String()
}

// AblationSeries is one Figure 11(b) curve: hit rate measured per segment.
type AblationSeries struct {
	Label    string
	Segments []float64 // estimated hit rate per time segment
}

// fig11bMix is Figure 11(b)'s long-scan-heavy workload.
var fig11bMix = workload.Mix{GetPct: 24, ShortScanPct: 5, LongScanPct: 66, WritePct: 5}

// RunFig11b regenerates Figure 11(b): Range Cache vs AdCache with only
// admission control, only adaptive partitioning, and both, under a
// long-scan-heavy workload.
func RunFig11b(sc Scale, report func(AblationSeries)) ([]AblationSeries, error) {
	mix := fig11bMix
	const segments = 12
	variants := []struct {
		label               string
		strategy            adcache.Strategy
		disableAdmission    bool
		disablePartitioning bool
	}{
		{"RangeCache", adcache.StrategyRange, false, false},
		{"AdCache(admission only)", adcache.StrategyAdCache, false, true},
		{"AdCache(partitioning only)", adcache.StrategyAdCache, true, false},
		{"AdCache(full)", adcache.StrategyAdCache, false, false},
	}
	var out []AblationSeries
	for _, v := range variants {
		cfg := Config{
			NumKeys: sc.NumKeys, ValueSize: sc.ValueSize,
			CacheFrac: 0.10, Strategy: v.strategy, Seed: sc.Seed,
		}
		cfg.AdCache.DisableAdmission = v.disableAdmission
		cfg.AdCache.DisablePartitioning = v.disablePartitioning
		if v.disablePartitioning {
			// The admission-only ablation keeps the whole budget in the
			// range cache, like the baseline it modifies.
			cfg.AdCache.InitialRangeRatio = 0.99
		}
		r, err := NewRunner(cfg)
		if err != nil {
			return nil, err
		}
		series := AblationSeries{Label: v.label}
		segOps := (sc.WarmOps + sc.MeasureOps) / segments
		for seg := 0; seg < segments; seg++ {
			res, err := r.Run(mix, segOps)
			if err != nil {
				r.Close()
				return nil, err
			}
			series.Segments = append(series.Segments, res.HitRate)
		}
		r.Close()
		out = append(out, series)
		if report != nil {
			report(series)
		}
	}
	return out, nil
}

// FormatFig11b renders the ablation curves.
func FormatFig11b(series []AblationSeries) string {
	var b strings.Builder
	b.WriteString("Figure 11b — ablation under long-scan-heavy workload (hit rate per segment)\n")
	for _, s := range series {
		fmt.Fprintf(&b, "  %-28s", s.Label)
		for _, h := range s.Segments {
			fmt.Fprintf(&b, " %.2f", h)
		}
		b.WriteString("\n")
	}
	return b.String()
}
