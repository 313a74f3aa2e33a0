// Analytics: long range scans over a hot working set, the §3.4 scenario
// where all-or-nothing result caching backfires. The program runs the same
// scan-heavy workload against plain Range Cache (admits every scan result,
// evicting hot point-lookup entries) and AdCache (partial admission caps
// each long scan's footprint), then compares hit rates and SST reads.
package main

import (
	"fmt"
	"log"

	"adcache"
	"adcache/internal/core"
	"adcache/internal/lsm"
	"adcache/internal/workload"
)

const (
	numKeys = 30_000
	ops     = 60_000
)

func main() {
	fmt.Println("workload: 40% point lookups on hot keys, 50% long scans (64 keys), 10% writes")
	mix := workload.Mix{GetPct: 40, LongScanPct: 50, WritePct: 10}

	rcReads, rcHits := run(adcache.StrategyRange, mix)
	adReads, adHits := run(adcache.StrategyAdCache, mix)

	fmt.Printf("\n%-22s %12s %12s\n", "strategy", "SST reads", "cache hits")
	fmt.Printf("%-22s %12d %12d\n", "RangeCache (full adm.)", rcReads, rcHits)
	fmt.Printf("%-22s %12d %12d\n", "AdCache (partial adm.)", adReads, adHits)
	if adReads < rcReads {
		fmt.Printf("\nAdCache avoided %.1f%% of the SST reads by bounding each\n"+
			"long scan's cache footprint instead of evicting the hot set.\n",
			100*float64(rcReads-adReads)/float64(rcReads))
	}
}

func run(strategy adcache.Strategy, mix workload.Mix) (reads, hits int64) {
	lsmOpts := lsm.DefaultOptions("db")
	db, err := adcache.Open(adcache.Options{
		CacheBytes: 1 << 20,
		Strategy:   strategy,
		AdCache:    core.Config{SyncTuning: true},
		LSM:        &lsmOpts,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	gen := workload.NewGenerator(workload.Config{NumKeys: numKeys, ValueSize: 100})
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

	fmt.Printf("\nrunning %s...\n", strategy)
	readsBefore := db.SSTReads()
	for i := 0; i < ops; i++ {
		op := gen.Next(mix)
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
	c := db.CacheCounters()
	totalHits := c.RangeGetHits + c.RangeScanHits + c.BlockHits + c.KVHits
	return db.SSTReads() - readsBefore, totalHits
}
