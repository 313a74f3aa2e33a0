package lsm

import (
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"adcache/internal/cache/lru"
	"adcache/internal/vfs"
)

func benchDB(b *testing.B, n int) *DB { return benchDBStrategy(b, n, nil) }

func benchDBStrategy(b *testing.B, n int, strategy CacheStrategy) *DB {
	b.Helper()
	opts := DefaultOptions("benchdb")
	opts.FS = vfs.NewMem()
	opts.Strategy = strategy
	db, err := Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	for i := 0; i < n; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		b.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		b.Fatal(err)
	}
	return db
}

func BenchmarkDBPut(b *testing.B) {
	opts := DefaultOptions("benchdb")
	opts.FS = vfs.NewMem()
	db, err := Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	value := val(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Put(key(i%100_000), value); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDBGetUncached(b *testing.B) {
	db := benchDB(b, 50_000)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := db.Get(key(rng.Intn(50_000))); err != nil || !ok {
			b.Fatal("get failed")
		}
	}
	b.ReportMetric(float64(db.QueryBlockReads())/float64(b.N), "blockreads/op")
}

// BenchmarkDBGetCached measures the steady-state point lookup with every
// block in the block cache — the path the zero-allocation work targets.
func BenchmarkDBGetCached(b *testing.B) {
	db := benchDBStrategy(b, 50_000, &blockOnlyStrategy{cache: lru.NewBlockCache(64 << 20)})
	// One pass over the keyspace pulls every block into the cache.
	for i := 0; i < 50_000; i += 50 {
		if _, ok, err := db.Get(key(i)); err != nil || !ok {
			b.Fatal("warm-up get failed")
		}
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := db.Get(key(rng.Intn(50_000))); err != nil || !ok {
			b.Fatal("get failed")
		}
	}
	b.ReportMetric(float64(db.QueryBlockReads())/float64(b.N), "blockreads/op")
}

func BenchmarkDBGetBloomNegative(b *testing.B) {
	db := benchDB(b, 50_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, _ := db.Get([]byte(fmt.Sprintf("absent%012d", i))); ok {
			b.Fatal("phantom key")
		}
	}
}

func BenchmarkDBScan16(b *testing.B) {
	db := benchDB(b, 50_000)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Scan(key(rng.Intn(49_000)), 16); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDBBatchCommit(b *testing.B) {
	opts := DefaultOptions("benchdb")
	opts.FS = vfs.NewMem()
	db, err := Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := NewBatch()
		for j := 0; j < 16; j++ {
			batch.Put(key((i*16+j)%100_000), val(j))
		}
		if err := db.Apply(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// slowFS models SSTable write latency on top of the in-memory FS: closing
// an .sst file sleeps for the configured delay (one device write burst per
// table). WAL and manifest files stay fast, so the commit path is identical
// in both modes and only the flush/compaction overlap differs — the effect
// the background write path exists to exploit.
type slowFS struct {
	vfs.FS
	delay time.Duration
}

func (s slowFS) Create(name string) (vfs.File, error) {
	f, err := s.FS.Create(name)
	if err != nil || !strings.HasSuffix(name, ".sst") {
		return f, err
	}
	return slowFile{f, s.delay}, nil
}

type slowFile struct {
	vfs.File
	delay time.Duration
}

func (f slowFile) Close() error {
	time.Sleep(f.delay)
	return f.File.Close()
}

// benchParallelMixed drives a mixed Get/Put workload from at least four
// concurrent goroutines (b.SetParallelism(4) guarantees 4×GOMAXPROCS
// workers) against a pre-loaded store, comparing the background write path
// with the pre-refactor inline-flush behaviour (InlineCompaction).
func benchParallelMixed(b *testing.B, inline bool, writePct int) {
	b.Helper()
	const n = 50_000
	opts := DefaultOptions("benchdb")
	opts.FS = slowFS{vfs.NewMem(), 5 * time.Millisecond}
	opts.MemTableSize = 256 << 10 // flush often enough for I/O to matter
	opts.InlineCompaction = inline
	db, err := Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	for i := 0; i < n; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		b.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		b.Fatal(err)
	}
	var seed atomic.Int64
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seed.Add(1)))
		for pb.Next() {
			k := rng.Intn(n)
			if rng.Intn(100) < writePct {
				if err := db.Put(key(k), val(k)); err != nil {
					b.Error(err)
					return
				}
			} else {
				if _, _, err := db.Get(key(k)); err != nil {
					b.Error(err)
					return
				}
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(db.Metrics().WriteGroups), "write-groups")
}

func BenchmarkParallelMixedBackground(b *testing.B) { benchParallelMixed(b, false, 25) }

func BenchmarkParallelMixedInline(b *testing.B) { benchParallelMixed(b, true, 25) }

func BenchmarkParallelPutBackground(b *testing.B) { benchParallelMixed(b, false, 100) }

func BenchmarkParallelPutInline(b *testing.B) { benchParallelMixed(b, true, 100) }

func BenchmarkParallelGet(b *testing.B) { benchParallelMixed(b, false, 0) }

func BenchmarkDBIterate(b *testing.B) {
	db := benchDB(b, 20_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, err := db.NewIter()
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for ok := it.First(); ok; ok = it.Next() {
			n++
		}
		it.Close()
		if n != 20_000 {
			b.Fatalf("iterated %d", n)
		}
	}
}
