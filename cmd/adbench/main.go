// Command adbench regenerates the paper's tables and figures against the
// from-scratch LSM engine and all six cache strategies.
//
// Usage:
//
//	adbench -exp fig7                 # one experiment at default scale
//	adbench -exp all -scale quick     # everything, small
//	adbench -exp fig8 -keys 100000 -ops 200000
//
// Experiments: fig1 fig6 fig7 fig8 (includes Table 4) fig9 fig10 fig11a
// fig11b table2 all, plus calibrate — the controlled-experiment sweep whose
// output rows are internal/core's prior table (not part of all):
//
//	adbench -exp calibrate > calibration.txt
//
// With -strategy, adbench instead runs a single latency benchmark against
// that cache strategy and prints the engine's latency histogram summary
// (Get/Scan/commit/flush/compaction percentiles from the metrics registry):
//
//	adbench -strategy adcache -scale quick
//
// With -compaction, adbench runs the compaction benchmark — the same
// random-order write-heavy load with serial and parallel subcompactions —
// and, with -json, writes throughput and stall figures to -out (default
// BENCH_COMPACTION.json):
//
//	adbench -compaction -json
//
// With -disk, adbench runs the on-disk persistence benchmark on a real
// temporary directory through OSFS — the same workload once per block codec
// (none, flate) — and, with -json, writes the compression ratio, cache
// hit-rate uplift and physical-byte budget check to -out (default
// BENCH_DISK.json):
//
//	adbench -disk -json
//
// With -cluster, adbench stands up a 3-node sharded cluster in-process —
// every hot hash slot deliberately placed on one node — measures fleet
// read p50/p99 through the public client, lets the latency-driven shard
// manager rebalance under live load, and measures again. With -json it
// writes the before/after phases, the move count and the p99 improvement
// to -out (default BENCH_CLUSTER.json); it exits non-zero if any
// user-visible client error occurs or the rebalance does not improve
// fleet read p99:
//
//	adbench -cluster -json
//
// With -wire, adbench benchmarks the data plane itself: a single node
// on a real on-disk store behind real loopback HTTP, a scan-heavy mixed
// workload through the public client, measured under the default JSON
// framing, the binary wire codec, and the codec plus server-side write
// coalescing. With -json it writes the three phases and the speedup to
// -out (default BENCH_WIRE.json); it exits non-zero unless the
// codec+coalescing configuration sustains at least 2x the JSON
// throughput at equal-or-better read p99 with zero client errors:
//
//	adbench -wire -json
//
// With -memory, adbench runs the unified-memory experiment: the
// RL-arbitrated single budget (memtables + block cache + range cache)
// against a grid of static memtable/cache splits of the same total budget,
// over a write-heavy → read-heavy → scan-heavy phase schedule, scored in
// simulated time (deterministic InlineCompaction + SyncTuning runs). With
// -json it writes per-phase throughput, budget trajectories and the gate
// results to -out (default BENCH_MEMORY.json); at artifact scale it exits
// non-zero unless unified beats every static split on phase-aggregate
// simulated-time throughput with read-heavy Get p99 no worse than the best
// static split and zero errors:
//
//	adbench -memory -json
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"adcache"
	"adcache/internal/harness"
	"adcache/internal/workload"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: fig1|fig6|fig7|fig8|fig9|fig10|fig11a|fig11b|table2|ablations|scaling|calibrate|all")
		scale    = flag.String("scale", "default", "scale preset: quick|default")
		keys     = flag.Int("keys", 0, "override key-space size")
		values   = flag.Int("values", 0, "override value size in bytes")
		ops      = flag.Int("ops", 0, "override measured ops (and warm-up ops)")
		seed     = flag.Int64("seed", 0, "override workload seed")
		csvDir   = flag.String("csv", "", "also write raw results as CSV into this directory")
		strategy = flag.String("strategy", "", "run a latency benchmark with this strategy (adcache|block|kv|range|lecar|cacheus|none) and print the histogram table")
		compact  = flag.Bool("compaction", false, "run the compaction benchmark (serial vs parallel subcompactions)")
		disk     = flag.Bool("disk", false, "run the on-disk persistence benchmark (none vs flate block compression on OSFS)")
		clusterB = flag.Bool("cluster", false, "run the 3-node cluster benchmark (fleet p99 before/after a latency-driven rebalance)")
		wireB    = flag.Bool("wire", false, "run the data-plane benchmark (JSON vs binary codec vs codec+write-coalescing over real HTTP)")
		memB     = flag.Bool("memory", false, "run the unified-memory benchmark (RL-arbitrated budget vs static memtable/cache splits over a three-phase schedule)")
		chaosB   = flag.Bool("chaos", false, "run the chaos benchmark (3-node fleet + manager under a seeded fault timeline, held to hard resilience gates)")
		asJSON   = flag.Bool("json", false, "with -compaction, -disk, -cluster, -wire, -memory or -chaos, write results as JSON")
		out      = flag.String("out", "", "with -json, output file (default BENCH_COMPACTION.json / BENCH_DISK.json / BENCH_CLUSTER.json / BENCH_WIRE.json / BENCH_MEMORY.json / BENCH_CHAOS.json)")
	)
	flag.Parse()

	if *chaosB {
		path := *out
		if path == "" {
			path = "BENCH_CHAOS.json"
		}
		if err := runChaosBench(*seed, *asJSON, path); err != nil {
			fmt.Fprintln(os.Stderr, "adbench:", err)
			os.Exit(1)
		}
		return
	}

	if *memB {
		path := *out
		if path == "" {
			path = "BENCH_MEMORY.json"
		}
		if err := runMemBench(*keys, *values, *ops, *asJSON, path); err != nil {
			fmt.Fprintln(os.Stderr, "adbench:", err)
			os.Exit(1)
		}
		return
	}

	if *wireB {
		path := *out
		if path == "" {
			path = "BENCH_WIRE.json"
		}
		if err := runWireBench(*keys, *ops, *asJSON, path); err != nil {
			fmt.Fprintln(os.Stderr, "adbench:", err)
			os.Exit(1)
		}
		return
	}

	if *clusterB {
		path := *out
		if path == "" {
			path = "BENCH_CLUSTER.json"
		}
		if err := runClusterBench(*keys, *ops, *asJSON, path); err != nil {
			fmt.Fprintln(os.Stderr, "adbench:", err)
			os.Exit(1)
		}
		return
	}

	if *compact {
		n := 200_000
		if *keys > 0 {
			n = *keys
		}
		path := *out
		if path == "" {
			path = "BENCH_COMPACTION.json"
		}
		if err := runCompactionBench(n, *asJSON, path); err != nil {
			fmt.Fprintln(os.Stderr, "adbench:", err)
			os.Exit(1)
		}
		return
	}

	if *disk {
		n := 100_000
		if *keys > 0 {
			n = *keys
		}
		path := *out
		if path == "" {
			path = "BENCH_DISK.json"
		}
		if err := runDiskBench(n, *asJSON, path); err != nil {
			fmt.Fprintln(os.Stderr, "adbench:", err)
			os.Exit(1)
		}
		return
	}

	sc := harness.DefaultScale()
	if *scale == "quick" {
		sc = harness.QuickScale()
	}
	if *keys > 0 {
		sc.NumKeys = *keys
	}
	if *values > 0 {
		sc.ValueSize = *values
	}
	if *ops > 0 {
		sc.MeasureOps = *ops
		sc.WarmOps = *ops
		sc.PhaseOps = *ops
	}
	if *seed != 0 {
		sc.Seed = *seed
	}

	if *strategy != "" {
		if err := runLatency(*strategy, sc); err != nil {
			fmt.Fprintln(os.Stderr, "adbench:", err)
			os.Exit(1)
		}
		return
	}

	run := func(name string) error {
		start := time.Now()
		fmt.Printf("== %s (keys=%d values=%dB ops=%d) ==\n", name, sc.NumKeys, sc.ValueSize, sc.MeasureOps)
		var err error
		switch name {
		case "fig1":
			var cells []harness.Cell
			if cells, err = harness.RunFig1(sc); err == nil {
				fmt.Print(harness.FormatFig1(cells))
			}
		case "fig6":
			var rows []harness.Fig6Row
			if rows, err = harness.RunFig6(sc); err == nil {
				fmt.Print(harness.FormatFig6(rows))
			}
		case "fig7":
			var cells []harness.Cell
			progress := func(c harness.Cell) {
				fmt.Fprintf(os.Stderr, "  %-12s cache=%4.0f%% %-20s hit=%.3f reads/op=%.2f\n",
					c.Workload, c.CacheFrac*100, c.Strategy, c.Result.HitRate, c.Result.ReadsPerOp())
			}
			if cells, err = harness.RunFig7(sc, progress); err == nil {
				fmt.Print(harness.FormatFig7(cells))
				err = writeCSV(*csvDir, "fig7.csv", func(w *os.File) error {
					return harness.WriteCellsCSV(w, cells)
				})
			}
		case "fig8":
			var prs []harness.PhaseResult
			progress := func(pr harness.PhaseResult) {
				fmt.Fprintf(os.Stderr, "  phase %s %-20s qps=%.0f hit=%.3f\n",
					pr.Phase, pr.Strategy, pr.Result.QPS, pr.Result.HitRate)
			}
			if prs, err = harness.RunFig8(sc, progress); err == nil {
				fmt.Print(harness.FormatFig8(prs))
				err = writeCSV(*csvDir, "fig8.csv", func(w *os.File) error {
					return harness.WritePhasesCSV(w, prs)
				})
			}
		case "fig9":
			var cells []harness.Cell
			progress := func(c harness.Cell) {
				fmt.Fprintf(os.Stderr, "  skew=%.1f %-20s hit=%.3f\n", c.Skew, c.Strategy, c.Result.HitRate)
			}
			if cells, err = harness.RunFig9(sc, progress); err == nil {
				fmt.Print(harness.FormatFig9(cells))
				err = writeCSV(*csvDir, "fig9.csv", func(w *os.File) error {
					return harness.WriteCellsCSV(w, cells)
				})
			}
		case "fig10":
			var wp, ap []harness.Fig10Series
			var pp harness.Fig10Series
			if wp, ap, pp, err = harness.RunFig10(sc); err == nil {
				fmt.Print(harness.FormatFig10(wp, ap, pp))
				err = writeCSV(*csvDir, "fig10.csv", func(w *os.File) error {
					all := append(append([]harness.Fig10Series{}, wp...), ap...)
					all = append(all, pp)
					return harness.WriteTraceCSV(w, all)
				})
			}
		case "fig11a":
			var pts []harness.Fig11aPoint
			progress := func(p harness.Fig11aPoint) {
				fmt.Fprintf(os.Stderr, "  clients=%d per-client=%.0f\n", p.Clients, p.PerClientQPS)
			}
			if pts, err = harness.RunFig11a(sc, progress); err == nil {
				fmt.Print(harness.FormatFig11a(pts))
			}
		case "fig11b":
			var series []harness.AblationSeries
			if series, err = harness.RunFig11b(sc, nil); err == nil {
				fmt.Print(harness.FormatFig11b(series))
			}
		case "table2":
			fmt.Print(harness.FormatTable2(harness.RunTable2()))
		case "scaling":
			var rows []harness.ScalingRow
			progress := func(r harness.ScalingRow) {
				fmt.Fprintf(os.Stderr, "  keys=%d %-12s %.3f→%.3f\n", r.NumKeys, r.Strategy, r.HitBefore, r.HitAfter)
			}
			if rows, err = harness.RunScaling(nil, progress); err == nil {
				fmt.Print(harness.FormatScaling(rows))
			}
		case "calibrate":
			var cells []harness.CalibrationCell
			progress := func(c harness.CalibrationCell) {
				fmt.Fprintf(os.Stderr, "  %-12s cache=%4.0f%% %+v reads/op=%.3f (%d runs)\n",
					c.Mix.Name, c.CacheFrac*100, c.Action, c.ReadsPerOp, c.Runs)
			}
			if cells, err = harness.RunCalibration(sc, progress); err == nil {
				fmt.Print(harness.FormatCalibration(cells))
			}
		case "ablations":
			var rows []harness.AblationRow
			progress := func(r harness.AblationRow) {
				fmt.Fprintf(os.Stderr, "  %s/%s hit=%.3f\n", r.Study, r.Variant, r.Result.HitRate)
			}
			if rows, err = harness.RunAblations(sc, progress); err == nil {
				fmt.Print(harness.FormatAblations(rows))
			}
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		if err != nil {
			return err
		}
		fmt.Printf("(%s took %s)\n\n", name, time.Since(start).Round(time.Millisecond))
		return nil
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "adbench:", err)
			os.Exit(1)
		}
	}

	names := []string{*exp}
	if *exp == "all" {
		names = []string{"table2", "fig1", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11a", "fig11b", "ablations"}
	}
	for _, name := range names {
		if err := run(name); err != nil {
			fmt.Fprintln(os.Stderr, "adbench:", err)
			os.Exit(1)
		}
	}
}

// runLatency loads a store, drives a balanced mixed workload against the
// chosen strategy, and prints the latency histogram summary table — the
// smoke-test face of the metrics subsystem (CI greps its p99 column).
func runLatency(name string, sc harness.Scale) error {
	strat, err := adcache.ParseStrategy(name)
	if err != nil {
		return err
	}
	cacheBytes := int64(sc.NumKeys*sc.ValueSize) / 10
	db, err := adcache.Open(adcache.Options{CacheBytes: cacheBytes, Strategy: strat})
	if err != nil {
		return err
	}
	defer db.Close()

	start := time.Now()
	gen := workload.NewGenerator(workload.Config{
		NumKeys: sc.NumKeys, ValueSize: sc.ValueSize, Seed: sc.Seed,
	})
	for i := 0; i < sc.NumKeys; i++ {
		if err := db.Put(workload.Key(i), gen.InitialValue(i)); err != nil {
			return err
		}
	}
	if err := db.Flush(); err != nil {
		return err
	}
	for i := 0; i < sc.MeasureOps; i++ {
		op := gen.Next(workload.MixBalanced)
		switch op.Kind {
		case workload.OpGet:
			_, _, err = db.Get(op.Key)
		case workload.OpScan:
			_, err = db.Scan(op.Key, op.ScanLen)
		default:
			err = db.Put(op.Key, op.Value)
		}
		if err != nil {
			return err
		}
	}

	m := db.Metrics()
	fmt.Printf("== latency %s (keys=%d values=%dB ops=%d cache=%dB) ==\n",
		m.Strategy, sc.NumKeys, sc.ValueSize, sc.MeasureOps, cacheBytes)
	db.Registry().WriteHistogramTable(os.Stdout)
	fmt.Printf("sst_reads=%d block_cache_hits=%d compactions=%d write_amp=%.2f\n",
		m.SSTReads, m.BlockCacheHits, m.Engine.Compactions, m.Engine.WriteAmplification())
	if m.AdCache != nil {
		t := m.AdCache.Tuning
		fmt.Printf("adcache windows=%d range_ratio=%.3f actor_lr=%.2g reward=%.4f\n",
			t.Windows, m.AdCache.Params.RangeRatio, t.ActorLR, t.Reward)
	}
	fmt.Printf("(latency run took %s)\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// writeCSV writes one CSV artifact when -csv is set.
func writeCSV(dir, name string, write func(*os.File) error) error {
	if dir == "" {
		return nil
	}
	f, err := os.Create(dir + "/" + name)
	if err != nil {
		return err
	}
	defer f.Close()
	return write(f)
}
