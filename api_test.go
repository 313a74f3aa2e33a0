package adcache_test

import (
	"bytes"
	"fmt"
	"testing"

	"adcache"
	"adcache/internal/lsm"
	"adcache/internal/trace"
	"adcache/internal/vfs"
	"adcache/internal/workload"
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

// TestAPITraceRecordsBatchEntries: Options.Trace promises every operation,
// and an Apply is one put or delete per entry — so a batch-writing
// application's trace carries its true write ratio.
func TestAPITraceRecordsBatchEntries(t *testing.T) {
	fs := vfs.NewMem()
	f, err := fs.Create("ops.trace")
	if err != nil {
		t.Fatal(err)
	}
	tw := trace.NewWriter(f)
	db, err := adcache.Open(adcache.Options{CacheBytes: 1 << 20, Trace: tw})
	if err != nil {
		t.Fatal(err)
	}
	b := db.NewBatch()
	b.Put([]byte("a"), []byte("1"))
	b.Delete([]byte("b"))
	b.Put([]byte("c"), []byte("3"))
	if err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Get([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	g, err := fs.Open("ops.trace")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	got, err := trace.ReadAll(g)
	if err != nil {
		t.Fatal(err)
	}
	want := []workload.Op{
		{Kind: workload.OpPut, Key: []byte("a")},
		{Kind: workload.OpDelete, Key: []byte("b")},
		{Kind: workload.OpPut, Key: []byte("c")},
		{Kind: workload.OpGet, Key: []byte("a")},
	}
	if len(got) != len(want) {
		t.Fatalf("trace holds %d ops, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i].Kind != want[i].Kind || !bytes.Equal(got[i].Key, want[i].Key) {
			t.Fatalf("op %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}
