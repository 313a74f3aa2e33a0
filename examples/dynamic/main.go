// Dynamic: the paper's §1 motivation, live. The workload shifts from
// point-lookup-heavy to scan-heavy to write-heavy; AdCache's controller
// relearns the cache boundary and admission parameters at each shift, while
// a static split cannot. The program prints the learned parameters and the
// estimated hit rate as phases change.
package main

import (
	"fmt"
	"log"

	"adcache"
	"adcache/internal/core"
	"adcache/internal/lsm"
	"adcache/internal/workload"
)

func main() {
	const numKeys = 30_000

	lsmOpts := lsm.DefaultOptions("db")
	db, err := adcache.Open(adcache.Options{
		CacheBytes: 2 << 20,
		Strategy:   adcache.StrategyAdCache,
		AdCache: core.Config{
			SyncTuning:  true, // deterministic demo output
			RecordTrace: true,
		},
		LSM: &lsmOpts,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	gen := workload.NewGenerator(workload.Config{NumKeys: numKeys, ValueSize: 100})
	fmt.Println("loading", numKeys, "keys...")
	for i := 0; i < numKeys; i++ {
		if err := db.Put(workload.Key(i), gen.InitialValue(i)); err != nil {
			log.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		log.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		log.Fatal(err)
	}

	phases := []struct {
		name string
		mix  workload.Mix
	}{
		{"point-heavy   (95% get)", workload.Mix{GetPct: 95, WritePct: 5}},
		{"scan-heavy    (90% short scan)", workload.Mix{GetPct: 5, ShortScanPct: 90, WritePct: 5}},
		{"write-heavy   (60% write)", workload.Mix{GetPct: 20, ShortScanPct: 20, WritePct: 60}},
	}

	const opsPerPhase = 30_000
	for _, phase := range phases {
		fmt.Printf("\n== phase: %s ==\n", phase.name)
		for i := 0; i < opsPerPhase; i++ {
			op := gen.Next(phase.mix)
			switch op.Kind {
			case workload.OpGet:
				if _, _, err := db.Get(op.Key); err != nil {
					log.Fatal(err)
				}
			case workload.OpScan:
				if _, err := db.Scan(op.Key, op.ScanLen); err != nil {
					log.Fatal(err)
				}
			case workload.OpPut:
				if err := db.Put(op.Key, op.Value); err != nil {
					log.Fatal(err)
				}
			}
		}
		p := db.AdCache().CurrentParams()
		trace := db.AdCache().Trace()
		var hit float64
		if len(trace) > 0 {
			hit = trace[len(trace)-1].HSmoothed
		}
		fmt.Printf("learned: range ratio %.2f | point threshold %.4f | scan a=%d b=%.2f\n",
			p.RangeRatio, p.PointThreshold, p.ScanA, p.ScanB)
		fmt.Printf("smoothed hit-rate estimate: %.3f (over %d control windows)\n",
			hit, db.AdCache().Windows())
	}

	fmt.Printf("\ntotal SST block reads: %d\n", db.SSTReads())
}
