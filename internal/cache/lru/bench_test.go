package lru

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
)

func benchKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key%08d", i))
	}
	return keys
}

func BenchmarkKVGetHit(b *testing.B) {
	c := NewKVCache(16 << 20)
	keys := benchKeys(10_000)
	v := make([]byte, 100)
	for _, k := range keys {
		c.Put(k, v)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get(keys[i%len(keys)])
	}
}

func BenchmarkKVPutEvict(b *testing.B) {
	c := NewKVCache(1 << 20) // small enough to evict constantly
	keys := benchKeys(10_000)
	v := make([]byte, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Put(keys[i%len(keys)], v)
	}
}

// benchParallel measures shard contention on the block cache: at least four
// goroutines (SetParallelism(4) gives 4×GOMAXPROCS workers) running a
// read-mostly block workload. numShards=1 approximates a single-lock cache;
// numShards=0 selects the adaptive shard count (16 at this capacity).
func benchParallel(b *testing.B, numShards int) {
	c := NewBlockCache(16 << 20)
	if numShards != 0 {
		c = &BlockCache{newShards(16<<20, numShards, blockHash)}
	}
	const files, blocks = 8, 256
	data := make([]byte, 4096)
	for f := uint64(0); f < files; f++ {
		for off := uint64(0); off < blocks; off++ {
			c.Insert(f, off*4096, data, 0)
		}
	}
	var seed atomic.Int64
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seed.Add(1)))
		for pb.Next() {
			f := uint64(rng.Intn(files))
			off := uint64(rng.Intn(blocks)) * 4096
			if rng.Intn(100) < 10 {
				c.Insert(f, off, data, 0)
			} else {
				c.Get(f, off)
			}
		}
	})
}

func BenchmarkParallelSharded(b *testing.B) { benchParallel(b, 0) }

func BenchmarkParallelSingleShard(b *testing.B) { benchParallel(b, 1) }
