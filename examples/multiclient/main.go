// Multiclient: §4.4 in action. Several client goroutines hammer one store
// concurrently while AdCache's sharded range cache (key-space partitioned,
// one lock per shard; a 2 MB budget runs four shards, whose boundaries the
// cache derives from what it holds) serves and admits results, and online
// training runs asynchronously in the background without blocking the
// serving path.
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"adcache"
	"adcache/internal/lsm"
	"adcache/internal/workload"
)

const (
	numKeys      = 30_000
	opsPerClient = 20_000
	clients      = 8
)

func main() {
	lsmOpts := lsm.DefaultOptions("db")
	db, err := adcache.Open(adcache.Options{
		CacheBytes: 2 << 20,
		Strategy:   adcache.StrategyAdCache,
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

	mix := workload.Mix{GetPct: 40, ShortScanPct: 30, WritePct: 30}
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			g := workload.NewGenerator(workload.Config{
				NumKeys: numKeys, ValueSize: 100, Seed: int64(c + 1),
			})
			for i := 0; i < opsPerClient; i++ {
				op := g.Next(mix)
				var err error
				switch op.Kind {
				case workload.OpGet:
					_, _, err = db.Get(op.Key)
				case workload.OpScan:
					_, err = db.Scan(op.Key, op.ScanLen)
				case workload.OpPut:
					err = db.Put(op.Key, op.Value)
				}
				if err != nil {
					log.Fatal(err)
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	total := clients * opsPerClient
	fmt.Printf("%d clients × %d ops: %s wall (%.0f ops/s aggregate)\n",
		clients, opsPerClient, elapsed.Round(time.Millisecond),
		float64(total)/elapsed.Seconds())

	c := db.CacheCounters()
	fmt.Printf("range cache: %d entries, %d get hits, %d scan hits (%d shards)\n",
		c.RangeEntries, c.RangeGetHits, c.RangeScanHits, len(db.AdCache().Range().ShardStats()))
	fmt.Printf("block cache: %d hits / %d misses\n", c.BlockHits, c.BlockMisses)
	fmt.Printf("control windows processed asynchronously: %d\n", db.AdCache().Windows())
	fmt.Printf("SST block reads: %d\n", db.SSTReads())
}
