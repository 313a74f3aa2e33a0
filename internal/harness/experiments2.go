package harness

import (
	"fmt"
	"strings"

	"adcache"
	"adcache/internal/rl"
	"adcache/internal/workload"
)

// RunFig1 regenerates the motivation figure: block-based vs result-based
// caching across workload patterns — each wins somewhere, neither wins
// everywhere.
func RunFig1(sc Scale) ([]Cell, error) {
	mixes := []struct {
		Name string
		Mix  workload.Mix
	}{
		{"point-heavy", workload.Mix{GetPct: 90, WritePct: 10}},
		{"scan-heavy", workload.Mix{ShortScanPct: 50, LongScanPct: 50}},
		{"update-heavy", workload.Mix{GetPct: 25, ShortScanPct: 25, WritePct: 50}},
	}
	var cells []Cell
	for _, m := range mixes {
		for _, s := range []adcache.Strategy{adcache.StrategyBlock, adcache.StrategyRange} {
			res, err := measure(Config{
				NumKeys: sc.NumKeys, ValueSize: sc.ValueSize,
				CacheFrac: 0.10, Strategy: s, Seed: sc.Seed,
			}, sc, m.Mix, nil)
			if err != nil {
				return nil, err
			}
			cells = append(cells, Cell{Workload: m.Name, Strategy: s.String(), Result: res})
		}
	}
	return cells, nil
}

// FormatFig1 renders the motivation comparison.
func FormatFig1(cells []Cell) string {
	var b strings.Builder
	b.WriteString("Figure 1 — block vs result caching across workload patterns (hit rate)\n")
	fmt.Fprintf(&b, "  %-14s %12s %12s\n", "workload", "BlockCache", "RangeCache")
	for _, w := range []string{"point-heavy", "scan-heavy", "update-heavy"} {
		fmt.Fprintf(&b, "  %-14s", w)
		for _, s := range []string{"BlockCache", "RangeCache"} {
			for _, c := range cells {
				if c.Workload == w && c.Strategy == s {
					fmt.Fprintf(&b, " %12.3f", c.Result.HitRate)
				}
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Fig6Row reports the eviction footprint of a single scan.
type Fig6Row struct {
	Cache       string
	ScanLen     int
	Evictions   int64
	IdealBlocks int
}

// RunFig6 regenerates Figure 6: how many cache entries one scan evicts from
// a warmed block cache vs a warmed range cache. The block cache evicts one
// block per (sorted run × block touched) — more than the "ideal" l/B —
// while the all-or-nothing range cache evicts one entry per scanned key.
func RunFig6(sc Scale) ([]Fig6Row, error) {
	var rows []Fig6Row
	for _, strat := range []adcache.Strategy{adcache.StrategyBlock, adcache.StrategyRange} {
		for _, scanLen := range []int{workload.ShortScanLen, workload.LongScanLen} {
			r, err := NewRunner(Config{
				NumKeys: sc.NumKeys, ValueSize: sc.ValueSize,
				// Small enough to stay full (so every admission evicts),
				// large enough that shards admit 4 KiB blocks.
				CacheFrac: 0.05, Strategy: strat, Seed: sc.Seed,
			})
			if err != nil {
				return nil, err
			}
			// Warm with points plus writes: the writes keep several sorted
			// runs alive, the multi-run layout behind the paper's "one
			// block per overlapping run" scan amplification.
			warmMix := workload.Mix{GetPct: 70, WritePct: 30}
			if err := r.Warm(warmMix, sc.WarmOps/2); err != nil {
				r.Close()
				return nil, err
			}
			before := r.DB.CacheCounters()
			// One scan in an otherwise idle cache.
			if _, err := r.DB.Scan(workload.Key(sc.NumKeys/3), scanLen); err != nil {
				r.Close()
				return nil, err
			}
			after := r.DB.CacheCounters()
			ev := (after.BlockEvictions - before.BlockEvictions) +
				(after.RangeEvictions - before.RangeEvictions)
			shape := r.Shape()
			r.Close()
			rows = append(rows, Fig6Row{
				Cache:       strat.String(),
				ScanLen:     scanLen,
				Evictions:   ev,
				IdealBlocks: int(float64(scanLen)/shape.EntriesPerBlock) + 1,
			})
		}
	}
	return rows, nil
}

// FormatFig6 renders the eviction study.
func FormatFig6(rows []Fig6Row) string {
	var b strings.Builder
	b.WriteString("Figure 6 — entries evicted by a single scan from a warmed cache\n")
	b.WriteString("  cache         scanLen  evictions  ideal(l/B)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-12s %8d %10d %11d\n", r.Cache, r.ScanLen, r.Evictions, r.IdealBlocks)
	}
	return b.String()
}

// Table2Row is one memory-overhead accounting row.
type Table2Row struct {
	Component string
	Bytes     int
}

// RunTable2 regenerates Table 2 from the live model: parameter memory and
// online-training overhead (Adam's two moments: 3× parameters in all, one
// copy less than the paper's ≈4×, since a training step applies each
// gradient as it computes it and stores none).
func RunTable2() []Table2Row {
	agent := rl.New(rl.Config{})
	params := agent.MemoryBytes()
	return []Table2Row{
		{"model parameters (actor+critic)", params},
		{"Adam first moments", params},
		{"Adam second moments", params},
		{"total online training", agent.TrainingMemoryBytes()},
	}
}

// FormatTable2 renders the memory accounting.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("Table 2 — memory overhead of the RL model\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-34s %8.0f KB\n", r.Component, float64(r.Bytes)/1024)
	}
	return b.String()
}
