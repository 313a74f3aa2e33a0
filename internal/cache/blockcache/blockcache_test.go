package blockcache

import (
	"fmt"
	"sync"
	"testing"
)

func block(size int, fill byte) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = fill
	}
	return b
}

func TestInsertGet(t *testing.T) {
	c := NewShards(1<<20, 4)
	c.Insert(1, 0, block(100, 'a'), 0, false)
	got, ok := c.Get(1, 0)
	if !ok || got[0] != 'a' {
		t.Fatalf("Get = %v, %v", got, ok)
	}
	if _, ok := c.Get(1, 4096); ok {
		t.Fatal("hit on absent block")
	}
	if _, ok := c.Get(2, 0); ok {
		t.Fatal("hit on wrong file")
	}
}

func TestLRUEvictionUnderPressure(t *testing.T) {
	c := NewShards(1000, 1)
	for i := 0; i < 20; i++ {
		c.Insert(1, uint64(i*100), block(100, byte(i)), 0, false)
	}
	if used := c.Used(); used > 1000 {
		t.Fatalf("used %d exceeds capacity", used)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions under pressure")
	}
	// Oldest entries must be gone, newest present.
	if _, ok := c.Get(1, 0); ok {
		t.Fatal("oldest block survived")
	}
	if _, ok := c.Get(1, 1900); !ok {
		t.Fatal("newest block evicted")
	}
}

func TestGetRefreshesRecency(t *testing.T) {
	c := NewShards(300, 1)
	c.Insert(1, 0, block(100, 'a'), 0, false)
	c.Insert(1, 100, block(100, 'b'), 0, false)
	c.Insert(1, 200, block(100, 'c'), 0, false)
	c.Get(1, 0) // refresh 'a'
	c.Insert(1, 300, block(100, 'd'), 0, false)
	if _, ok := c.Get(1, 0); !ok {
		t.Fatal("refreshed block evicted")
	}
	if _, ok := c.Get(1, 100); ok {
		t.Fatal("LRU victim survived")
	}
}

func TestUpdateInPlace(t *testing.T) {
	c := New(1 << 20)
	c.Insert(1, 0, block(100, 'a'), 0, false)
	c.Insert(1, 0, block(50, 'b'), 0, false)
	got, ok := c.Get(1, 0)
	if !ok || len(got) != 50 || got[0] != 'b' {
		t.Fatalf("updated block = %d bytes %q", len(got), got[:1])
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestOversizedBlockRejected(t *testing.T) {
	c := NewShards(100, 1)
	c.Insert(1, 0, block(200, 'x'), 0, false)
	if _, ok := c.Get(1, 0); ok {
		t.Fatal("oversized block admitted")
	}
}

func TestResizeEvictsDown(t *testing.T) {
	c := NewShards(10_000, 1)
	for i := 0; i < 50; i++ {
		c.Insert(1, uint64(i)*100, block(100, 'x'), 0, false)
	}
	c.Resize(500)
	if used := c.Used(); used > 500 {
		t.Fatalf("used %d after shrink", used)
	}
	c.Resize(10_000)
	if c.Capacity() != 10_000 {
		t.Fatalf("capacity = %d after grow", c.Capacity())
	}
}

func TestZeroCapacityAdmitsNothing(t *testing.T) {
	c := NewShards(0, 1)
	c.Insert(1, 0, block(10, 'x'), 0, false)
	if c.Len() != 0 {
		t.Fatal("zero-capacity cache admitted a block")
	}
}

func TestStatsCounters(t *testing.T) {
	c := New(1 << 20)
	c.Insert(1, 0, block(10, 'a'), 0, false)
	c.Get(1, 0)
	c.Get(1, 999)
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Inserts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAdaptiveShardCount(t *testing.T) {
	small := New(10 << 10) // 10 KiB: one shard, so a 4 KiB block fits
	small.Insert(1, 0, block(4096, 'x'), 0, false)
	if _, ok := small.Get(1, 0); !ok {
		t.Fatal("small cache cannot admit a 4 KiB block (shard too small)")
	}
	big := New(64 << 20)
	if len(big.shards) != DefaultShards {
		t.Fatalf("big cache shards = %d", len(big.shards))
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(1 << 20)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				off := uint64((g*1000 + i) % 500 * 128)
				if i%3 == 0 {
					c.Insert(uint64(g%3), off, block(64, byte(i)), 0, false)
				} else {
					c.Get(uint64(g%3), off)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Used() > c.Capacity() {
		t.Fatalf("used %d > capacity %d", c.Used(), c.Capacity())
	}
}

func TestManyFilesDistribution(t *testing.T) {
	c := NewShards(1<<20, 8)
	for f := uint64(0); f < 100; f++ {
		for o := uint64(0); o < 4; o++ {
			c.Insert(f, o*4096, block(64, 'z'), 0, false)
		}
	}
	if c.Len() != 400 {
		t.Fatalf("Len = %d", c.Len())
	}
	// Every shard should hold something (hash spreads keys).
	for i, s := range c.shards {
		s.mu.Lock()
		n := len(s.items)
		s.mu.Unlock()
		if n == 0 {
			t.Fatalf("shard %d empty: poor key distribution", i)
		}
	}
}

func TestScanFlagIgnoredByPlainCache(t *testing.T) {
	c := New(1 << 20)
	c.Insert(1, 0, block(10, 'a'), 0, true) // scan-tagged
	if _, ok := c.Get(1, 0); !ok {
		t.Fatal("plain cache must admit scan-tagged blocks (RocksDB default)")
	}
}

func ExampleCache() {
	c := New(1 << 20)
	c.Insert(7, 0, []byte("block-bytes"), 0, false)
	if data, ok := c.Get(7, 0); ok {
		fmt.Println(string(data))
	}
	// Output: block-bytes
}
