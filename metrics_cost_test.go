package adcache_test

import (
	"io"
	"testing"

	"adcache"
)

// TestScrapeCost pins what one /metrics render costs a default AdCache
// store: one engine snapshot (one engine-lock visit) and one visit to each
// cache shard's lock, however many series come out. The func-series bridges
// this replaced took the engine snapshot 29 times plus 28 direct lock
// visits, and ~1,300 shard-lock visits at 16 block-cache shards.
func TestScrapeCost(t *testing.T) {
	db, err := adcache.Open(adcache.Options{CacheBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	block, rng := db.AdCache().Block(), db.AdCache().Range()
	blockShards, rangeShards := int64(len(block.ShardStats())), int64(len(rng.ShardStats()))

	engine, blockLocks, rangeLocks := db.LSM().MetricsSnapshots(), block.StatLockVisits(), rng.StatLockVisits()
	if err := db.Registry().WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
	if got := db.LSM().MetricsSnapshots() - engine; got != 1 {
		t.Errorf("engine snapshots per render = %d, want 1", got)
	}
	if got := block.StatLockVisits() - blockLocks; got != blockShards {
		t.Errorf("block-cache shard lock visits per render = %d, want %d (one per shard)", got, blockShards)
	}
	if got := rng.StatLockVisits() - rangeLocks; got != rangeShards {
		t.Errorf("range-cache shard lock visits per render = %d, want %d (one per shard)", got, rangeShards)
	}
}
