// Benchmarks regenerating every table and figure of the paper's evaluation
// at quick scale (run `cmd/adbench` for full-scale tables). Each benchmark
// executes the corresponding experiment once per iteration and reports the
// headline metric via b.ReportMetric; the full tables print under -v.
//
//	go test -bench=. -benchmem
package adcache_test

import (
	"testing"

	"adcache"
	"adcache/internal/harness"
	"adcache/internal/workload"
)

// benchScale keeps the full suite under a few minutes.
func benchScale() harness.Scale {
	sc := harness.QuickScale()
	sc.WarmOps = 8_000
	sc.MeasureOps = 8_000
	sc.PhaseOps = 8_000
	return sc
}

// BenchmarkTable2RLMemory regenerates Table 2: the RL model's memory
// overhead (≈550 KB of weights, 3× that during online training).
func BenchmarkTable2RLMemory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := harness.RunTable2()
		b.ReportMetric(float64(rows[0].Bytes)/1024, "weights-KB")
		b.ReportMetric(float64(rows[len(rows)-1].Bytes)/1024, "training-KB")
		if i == 0 {
			b.Log("\n" + harness.FormatTable2(rows))
		}
	}
}

// BenchmarkFig1Tradeoff regenerates Figure 1: block vs result caching across
// workload patterns.
func BenchmarkFig1Tradeoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := harness.RunFig1(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + harness.FormatFig1(cells))
		}
	}
}

// BenchmarkFig6ScanEvictions regenerates Figure 6: the eviction footprint of
// a single scan in block vs result caches.
func BenchmarkFig6ScanEvictions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.RunFig6(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Cache == "RangeCache" && r.ScanLen == workload.LongScanLen {
				b.ReportMetric(float64(r.Evictions), "range-evictions-per-long-scan")
			}
		}
		if i == 0 {
			b.Log("\n" + harness.FormatFig6(rows))
		}
	}
}

// BenchmarkFig7StaticWorkloads regenerates Figure 7: hit rate across cache
// sizes for every strategy under the four static workloads.
func BenchmarkFig7StaticWorkloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := harness.RunFig7(benchScale(), nil)
		if err != nil {
			b.Fatal(err)
		}
		var adHit, blockHit float64
		var n int
		for _, c := range cells {
			if c.CacheFrac == 0.10 {
				switch c.Strategy {
				case "AdCache":
					adHit += c.Result.HitRate
					n++
				case "BlockCache":
					blockHit += c.Result.HitRate
				}
			}
		}
		if n > 0 {
			b.ReportMetric(adHit/float64(n), "adcache-hit@10%")
			b.ReportMetric(blockHit/float64(n), "block-hit@10%")
		}
		if i == 0 {
			b.Log("\n" + harness.FormatFig7(cells))
		}
	}
}

// BenchmarkFig8DynamicPhases regenerates Figure 8 and Table 4: throughput
// and hit rate through the dynamic phase schedule A→F, with rankings.
func BenchmarkFig8DynamicPhases(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := harness.RunFig8(benchScale(), nil)
		if err != nil {
			b.Fatal(err)
		}
		rk := harness.RankFig8(results)
		var sumT, sumH int
		for _, phase := range rk.Phases {
			sumT += rk.Throughput[phase]["AdCache"]
			sumH += rk.HitRate[phase]["AdCache"]
		}
		n := float64(len(rk.Phases))
		b.ReportMetric(float64(sumT)/n, "adcache-avg-qps-rank")
		b.ReportMetric(float64(sumH)/n, "adcache-avg-hit-rank")
		if i == 0 {
			b.Log("\n" + harness.FormatFig8(results))
		}
	}
}

// BenchmarkFig9Skewness regenerates Figure 9: hit rate across Zipfian skews
// under a 50%-update mix.
func BenchmarkFig9Skewness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := harness.RunFig9(benchScale(), nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			if c.Strategy == "AdCache" && c.Skew == 1.2 {
				b.ReportMetric(c.Result.HitRate, "adcache-hit@skew1.2")
			}
		}
		if i == 0 {
			b.Log("\n" + harness.FormatFig9(cells))
		}
	}
}

// BenchmarkFig10Convergence regenerates Figure 10: convergence across window
// sizes and smoothing factors through a workload shift, plus the parameter
// evolution trace.
func BenchmarkFig10Convergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		wp, ap, pp, err := harness.RunFig10(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if len(pp.Traces) > 0 {
			last := pp.Traces[len(pp.Traces)-1]
			b.ReportMetric(last.Params.RangeRatio, "final-range-ratio")
		}
		if i == 0 {
			b.Log("\n" + harness.FormatFig10(wp, ap, pp))
		}
	}
}

// BenchmarkFig11aScaling regenerates Figure 11(a): per-client QPS as the
// client count grows with background training active.
func BenchmarkFig11aScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := harness.RunFig11a(benchScale(), nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(points) > 0 {
			first, last := points[0], points[len(points)-1]
			b.ReportMetric(last.PerClientQPS/first.PerClientQPS, "qps-ratio-32c-vs-1c")
		}
		if i == 0 {
			b.Log("\n" + harness.FormatFig11a(points))
		}
	}
}

// BenchmarkFig11bAblation regenerates Figure 11(b): Range Cache vs AdCache
// with admission control only, partitioning only, and both.
func BenchmarkFig11bAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := harness.RunFig11b(benchScale(), nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range series {
			if s.Label == "AdCache(full)" && len(s.Segments) > 0 {
				b.ReportMetric(s.Segments[len(s.Segments)-1], "adcache-full-final-hit")
			}
		}
		if i == 0 {
			b.Log("\n" + harness.FormatFig11b(series))
		}
	}
}

// BenchmarkAblations measures the repo's own design choices (boundary
// hysteresis, online residual learning vs the frozen prior).
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.RunAblations(benchScale(), nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + harness.FormatAblations(rows))
		}
	}
}

// Per-operation microbenchmarks: raw engine speed under each strategy.

func benchDB(b *testing.B, strategy adcache.Strategy) (*harness.Runner, *workload.Generator) {
	b.Helper()
	r, err := harness.NewRunner(harness.Config{
		NumKeys: 20_000, ValueSize: 100, CacheFrac: 0.10,
		Strategy: strategy, Seed: 99,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { r.Close() })
	if err := r.Warm(workload.MixBalanced, 20_000); err != nil {
		b.Fatal(err)
	}
	return r, r.Gen
}

func benchOps(b *testing.B, strategy adcache.Strategy, mix workload.Mix) {
	r, gen := benchDB(b, strategy)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := gen.Next(mix)
		var err error
		switch op.Kind {
		case workload.OpGet:
			_, _, err = r.DB.Get(op.Key)
		case workload.OpScan:
			_, err = r.DB.Scan(op.Key, op.ScanLen)
		case workload.OpPut:
			err = r.DB.Put(op.Key, op.Value)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(r.DB.SSTReads())/float64(b.N), "reads/op(cum)")
}

func BenchmarkOpsBlockCacheBalanced(b *testing.B) {
	benchOps(b, adcache.StrategyBlock, workload.MixBalanced)
}

func BenchmarkOpsRangeCacheBalanced(b *testing.B) {
	benchOps(b, adcache.StrategyRange, workload.MixBalanced)
}

func BenchmarkOpsAdCacheBalanced(b *testing.B) {
	benchOps(b, adcache.StrategyAdCache, workload.MixBalanced)
}

func BenchmarkOpsAdCachePointLookup(b *testing.B) {
	benchOps(b, adcache.StrategyAdCache, workload.MixPointLookup)
}

func BenchmarkOpsAdCacheShortScan(b *testing.B) {
	benchOps(b, adcache.StrategyAdCache, workload.MixShortScan)
}
