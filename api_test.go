package adcache_test

import (
	"bytes"
	"fmt"
	"testing"

	"adcache"
	"adcache/internal/lsm"
	"adcache/internal/vfs"
)

func openAPI(t *testing.T, strategy adcache.Strategy) *adcache.DB {
	t.Helper()
	db, err := adcache.Open(adcache.Options{
		CacheBytes: 1 << 20,
		Strategy:   strategy,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestAPIAllStrategiesBasicOps(t *testing.T) {
	for _, s := range adcache.Strategies() {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			db := openAPI(t, s)
			for i := 0; i < 500; i++ {
				if err := db.Put([]byte(fmt.Sprintf("key%04d", i)), []byte(fmt.Sprintf("val%04d", i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			// Reads repeated so result caches serve the second round.
			for round := 0; round < 2; round++ {
				for i := 0; i < 500; i += 25 {
					v, ok, err := db.Get([]byte(fmt.Sprintf("key%04d", i)))
					if err != nil || !ok || !bytes.Equal(v, []byte(fmt.Sprintf("val%04d", i))) {
						t.Fatalf("round %d Get(%d) = %q ok=%v err=%v", round, i, v, ok, err)
					}
				}
				kvs, err := db.Scan([]byte("key0100"), 10)
				if err != nil || len(kvs) != 10 {
					t.Fatalf("round %d Scan = %d entries err=%v", round, len(kvs), err)
				}
				for j, kv := range kvs {
					want := fmt.Sprintf("key%04d", 100+j)
					if string(kv.Key) != want {
						t.Fatalf("Scan[%d] = %s, want %s", j, kv.Key, want)
					}
				}
			}
			// Updates and deletes stay coherent through every cache.
			if err := db.Put([]byte("key0100"), []byte("updated")); err != nil {
				t.Fatal(err)
			}
			if v, ok, _ := db.Get([]byte("key0100")); !ok || string(v) != "updated" {
				t.Fatalf("after update Get = %q ok=%v", v, ok)
			}
			if err := db.Delete([]byte("key0101")); err != nil {
				t.Fatal(err)
			}
			if _, ok, _ := db.Get([]byte("key0101")); ok {
				t.Fatal("deleted key visible")
			}
			kvs, err := db.Scan([]byte("key0100"), 3)
			if err != nil {
				t.Fatal(err)
			}
			want := []string{"updated", "val0102", "val0103"}
			for j, kv := range kvs {
				if string(kv.Value) != want[j] {
					t.Fatalf("post-mutation Scan[%d] = %q, want %q", j, kv.Value, want[j])
				}
			}
		})
	}
}

func TestAPIStrategyRouting(t *testing.T) {
	db := openAPI(t, adcache.StrategyAdCache)
	if db.Strategy() != adcache.StrategyAdCache {
		t.Fatalf("Strategy = %v", db.Strategy())
	}
	if db.AdCache() == nil {
		t.Fatal("AdCache() nil for the AdCache strategy")
	}
	blockDB := openAPI(t, adcache.StrategyBlock)
	if blockDB.AdCache() != nil {
		t.Fatal("AdCache() non-nil for the block strategy")
	}
}

func TestAPIDefaultStrategyIsAdCache(t *testing.T) {
	db, err := adcache.Open(adcache.Options{CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.Strategy() != adcache.StrategyAdCache {
		t.Fatalf("default strategy = %v", db.Strategy())
	}
}

// TestInlineEngineTunesInline: with no controller setting, AdCache on an
// engine that flushes and compacts inline tunes on the operation that
// closes each window, so the window's journal record is there when that
// operation returns.
func TestInlineEngineTunesInline(t *testing.T) {
	const window, windows = 1000, 12 // window: core.Config's default WindowSize
	lsmOpts := lsm.DefaultOptions("db")
	lsmOpts.InlineCompaction = true
	db, err := adcache.Open(adcache.Options{
		CacheBytes: 1 << 20,
		Strategy:   adcache.StrategyAdCache,
		LSM:        &lsmOpts,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ad := db.AdCache()
	val := bytes.Repeat([]byte{'v'}, 100)
	for i := 1; i <= windows*window; i++ {
		key := []byte(fmt.Sprintf("key%05d", i%2000))
		if i%2 == 0 {
			err = db.Put(key, val)
		} else {
			_, _, err = db.Get(key)
		}
		if err != nil {
			t.Fatal(err)
		}
		if got, want := ad.Windows(), int64(i/window); got != want {
			t.Fatalf("after op %d: %d windows journalled, want %d", i, got, want)
		}
	}
	recs := ad.Journal(0)
	if len(recs) != windows {
		t.Fatalf("journal holds %d records, want %d", len(recs), windows)
	}
	for i, r := range recs {
		if r.Windows != int64(i+1) {
			t.Fatalf("record %d is window %d", i, r.Windows)
		}
	}
}

func TestAPICacheCounters(t *testing.T) {
	db := openAPI(t, adcache.StrategyRange)
	for i := 0; i < 200; i++ {
		db.Put([]byte(fmt.Sprintf("key%04d", i)), []byte("v"))
	}
	db.Flush()
	db.Get([]byte("key0001"))
	db.Get([]byte("key0001"))
	c := db.CacheCounters()
	if c.RangeGetHits == 0 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestAPIPersistenceAcrossReopen(t *testing.T) {
	fs := vfs.NewMem()
	lsmOpts := lsm.DefaultOptions("db")
	open := func() *adcache.DB {
		db, err := adcache.Open(adcache.Options{
			FS: fs, CacheBytes: 1 << 20, Strategy: adcache.StrategyBlock, LSM: &lsmOpts,
		})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	db := open()
	for i := 0; i < 1000; i++ {
		db.Put([]byte(fmt.Sprintf("key%04d", i)), []byte(fmt.Sprintf("val%04d", i)))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := open()
	defer db2.Close()
	for i := 0; i < 1000; i += 111 {
		v, ok, err := db2.Get([]byte(fmt.Sprintf("key%04d", i)))
		if err != nil || !ok || string(v) != fmt.Sprintf("val%04d", i) {
			t.Fatalf("after reopen Get(%d) = %q ok=%v err=%v", i, v, ok, err)
		}
	}
}

func TestAPISSTReadsGrowOnMisses(t *testing.T) {
	db := openAPI(t, adcache.StrategyNone)
	for i := 0; i < 2000; i++ {
		db.Put([]byte(fmt.Sprintf("key%05d", i)), bytes.Repeat([]byte("x"), 100))
	}
	db.Flush()
	before := db.SSTReads()
	for i := 0; i < 100; i++ {
		db.Get([]byte(fmt.Sprintf("key%05d", i*17)))
	}
	if db.SSTReads() == before {
		t.Fatal("uncached reads did not count SST reads")
	}
}

// TestAPIUnboundedScanRangeRepeats is the regression test for a crash found
// while rebuilding the range cache's Scan: ScanRange with no count bound asks
// the result cache for "as many as there are", and once the first call had
// admitted the range, the second made the cache size its result for that
// count (makeslice: cap out of range) before checking how far its coverage
// reached. Coverage is now proven before the result is allocated.
func TestAPIUnboundedScanRangeRepeats(t *testing.T) {
	for _, s := range []adcache.Strategy{adcache.StrategyAdCache, adcache.StrategyRange} {
		db, err := adcache.Open(adcache.Options{CacheBytes: 1 << 20, Strategy: s})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			db.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v"))
		}
		for pass := 0; pass < 3; pass++ {
			kvs, err := db.ScanRange([]byte("k3"), []byte("k6"), 0)
			if err != nil || len(kvs) != 3 {
				t.Fatalf("%v pass %d: ScanRange = %d pairs, err %v; want 3", s, pass, len(kvs), err)
			}
		}
		db.Close()
	}
}
