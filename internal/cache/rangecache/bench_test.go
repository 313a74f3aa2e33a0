package rangecache

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
)

func benchCache(b *testing.B, policy string) *Cache {
	b.Helper()
	c := New(Options{Capacity: 16 << 20, Policy: policy})
	c.InsertScan(k(0), kvs(0, 10_000))
	return c
}

func BenchmarkGetHit(b *testing.B) {
	c := benchCache(b, "lru")
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get(k(rng.Intn(10_000)))
	}
}

func BenchmarkGetMiss(b *testing.B) {
	c := benchCache(b, "lru")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get([]byte(fmt.Sprintf("zz%08d", i)))
	}
}

func BenchmarkScanHit16(b *testing.B) {
	c := benchCache(b, "lru")
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Scan(k(rng.Intn(9_000)), 16)
	}
}

func BenchmarkInsertScan16(b *testing.B) {
	c := New(Options{Capacity: 16 << 20, Policy: "lru"})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := (i * 16) % 100_000
		c.InsertScan(k(start), kvs(start, 16))
	}
}

func BenchmarkPutWriteThrough(b *testing.B) {
	c := benchCache(b, "lru")
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Put(k(rng.Intn(10_000)), v(i))
	}
}

func BenchmarkEvictionPressure(b *testing.B) {
	for _, policy := range []string{"lru", "lecar", "cacheus"} {
		b.Run(policy, func(b *testing.B) {
			// Capacity for ~1000 entries; constant insertion pressure.
			c := New(Options{Capacity: 1000 * 160, Policy: policy})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.InsertPoint(k(i%50_000), v(i))
			}
		})
	}
}

// benchTable is a database of 24-byte keys and 256-byte values (the repo
// benchmark's shapes), built once so the benches below time the cache alone.
var benchTable = func() []KV {
	out := make([]KV, 1<<17)
	for i := range out {
		out[i] = KV{Key: []byte(fmt.Sprintf("user%020d", i)), Value: bytes.Repeat([]byte{byte(i)}, 256)}
	}
	return out
}()

// benchFull returns a cache holding about 4096 table entries, filled to
// capacity so that every admission evicts as much as it admits.
func benchFull(policy string) *Cache {
	c := New(Options{Capacity: 4096 * (24 + 256 + entryOverhead), Policy: policy})
	for at := 0; at+64 <= 8192; at += 64 {
		c.InsertScan(benchTable[at].Key, benchTable[at:at+64])
	}
	return c
}

// BenchmarkInsertScan64AtCapacity admits 64-entry scan results, each at a
// fresh place in the key space, into a full cache: 64 splices and 64
// evictions per op.
func BenchmarkInsertScan64AtCapacity(b *testing.B) {
	c := benchFull("lru")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := (8192 + i*64) % (len(benchTable) - 64)
		c.InsertScan(benchTable[at].Key, benchTable[at:at+64])
	}
}

// BenchmarkScanMissThenAdmit is what a missed long scan costs the cache
// under AdCache's partial admission (a=16, b=0.5): the failed lookup, then
// admitting 24 entries past whatever prefix is already covered. Every start
// is visited three times in a row, so the covered prefix is 0, 24 and 48.
func BenchmarkScanMissThenAdmit(b *testing.B) {
	c := benchFull("lru")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := (8192 + i/3*64) % (len(benchTable) - 64)
		res := benchTable[at : at+64]
		if _, ok := c.Scan(res[0].Key, 64); ok {
			b.Fatal("scan of an uncovered range hit")
		}
		c.ExtendScan(res[0].Key, res, 24)
	}
}

// BenchmarkParallelMix runs embed_read's operation mix (see mix_test.go)
// from every benchmark goroutine against one 6 MB cache, filled first by
// the same mix: one shard behind one lock against the shards the budget
// earns. Misses are admitted as AdCache admits them, so an op is a lookup
// and, about half the time, an admission with its evictions. Run it at
// -cpu 1,2,... to see what the shard locks buy under contention.
func BenchmarkParallelMix(b *testing.B) {
	table := mixTable()
	warm := mixOps(embedRead, 1, 300_000)
	streams := make([][]mixOp, runtime.GOMAXPROCS(0))
	for i := range streams {
		streams[i] = mixOps(embedRead, int64(100+i), 1<<16)
	}
	for _, shards := range []int{1, shardCount(6 << 20)} {
		c := newCache(Options{Capacity: 6 << 20}, shards)
		for _, op := range warm {
			serveMix(c, table, op)
		}
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			var next atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				ops := streams[int(next.Add(1)-1)%len(streams)]
				for i := 0; pb.Next(); i++ {
					serveMix(c, table, ops[i%len(ops)])
				}
			})
		})
	}
}
