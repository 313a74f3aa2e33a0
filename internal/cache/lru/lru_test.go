package lru

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
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

// kvCharge is what KVCache charges for a key and value of these lengths.
func kvCharge(keyLen, valueLen int) int64 { return int64(keyLen+valueLen) + kvEntryOverhead }

func (c *Cache[K]) keys() []K {
	var out []K
	for _, s := range c.shards {
		s.mu.Lock()
		for k := range s.items {
			out = append(out, k)
		}
		s.mu.Unlock()
	}
	return out
}

func TestInsertGet(t *testing.T) {
	c := NewBlockCache(1 << 20)
	c.Insert(1, 0, block(100, 'a'), 0)
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

func TestPutGetInvalidate(t *testing.T) {
	c := NewKVCache(1 << 20)
	c.Put([]byte("k"), []byte("v"))
	if v, ok := c.Get([]byte("k")); !ok || string(v) != "v" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	c.Remove([]byte("k"))
	if _, ok := c.Get([]byte("k")); ok {
		t.Fatal("hit after remove")
	}
	if st := c.Stats(); st.Used != 0 || st.Entries != 0 {
		t.Fatalf("after remove: %+v", st)
	}
	c.Remove([]byte("absent")) // must not panic
}

func TestLRUEvictionUnderPressure(t *testing.T) {
	t.Run("block", func(t *testing.T) {
		c := NewBlockCache(1000)
		for i := 0; i < 20; i++ {
			c.Insert(1, uint64(i*100), block(100, byte(i)), 0)
		}
		st := c.Stats()
		if st.Used > 1000 {
			t.Fatalf("used %d exceeds capacity", st.Used)
		}
		if st.Evictions == 0 {
			t.Fatal("no evictions under pressure")
		}
		if _, ok := c.Get(1, 0); ok {
			t.Fatal("oldest block survived")
		}
		if _, ok := c.Get(1, 1900); !ok {
			t.Fatal("newest block evicted")
		}
	})
	t.Run("kv", func(t *testing.T) {
		kv := NewKVCache(3 * kvCharge(2, 10))
		for i := 0; i < 5; i++ {
			kv.Put([]byte(fmt.Sprintf("k%d", i)), make([]byte, 10))
		}
		if _, ok := kv.Get([]byte("k1")); ok {
			t.Fatal("old entry survived")
		}
		if _, ok := kv.Get([]byte("k4")); !ok {
			t.Fatal("newest entry evicted")
		}
		if st := kv.Stats(); st.Evictions != 2 || st.Entries != 3 {
			t.Fatalf("stats = %+v, want 2 evictions and 3 entries", st)
		}
	})
}

func TestGetRefreshesRecency(t *testing.T) {
	t.Run("block", func(t *testing.T) {
		c := NewBlockCache(300)
		c.Insert(1, 0, block(100, 'a'), 0)
		c.Insert(1, 100, block(100, 'b'), 0)
		c.Insert(1, 200, block(100, 'c'), 0)
		c.Get(1, 0) // refresh 'a'
		c.Insert(1, 300, block(100, 'd'), 0)
		if _, ok := c.Get(1, 0); !ok {
			t.Fatal("refreshed block evicted")
		}
		if _, ok := c.Get(1, 100); ok {
			t.Fatal("LRU victim survived")
		}
	})
	t.Run("kv", func(t *testing.T) {
		kv := NewKVCache(2 * kvCharge(2, 4))
		kv.Put([]byte("k0"), make([]byte, 4))
		kv.Put([]byte("k1"), make([]byte, 4))
		kv.Get([]byte("k0"))
		kv.Put([]byte("k2"), make([]byte, 4))
		if _, ok := kv.Get([]byte("k0")); !ok {
			t.Fatal("refreshed entry evicted")
		}
		if _, ok := kv.Get([]byte("k1")); ok {
			t.Fatal("LRU victim survived")
		}
	})
}

func TestUpdateInPlace(t *testing.T) {
	t.Run("block", func(t *testing.T) {
		c := NewBlockCache(1 << 20)
		c.Insert(1, 0, block(100, 'a'), 300) // compressed: decodes to 300 bytes
		c.Insert(1, 0, block(50, 'b'), 0)
		got, ok := c.Get(1, 0)
		if !ok || len(got) != 50 || got[0] != 'b' {
			t.Fatalf("updated block = %d bytes %q", len(got), got[:1])
		}
		if st := c.Stats(); st.Entries != 1 || st.Used != 50 || st.LogicalUsed != 50 || st.Inserts != 1 {
			t.Fatalf("after update: %+v, want 1 entry, 50 used and logical bytes, 1 insert", st)
		}
	})
	t.Run("kv", func(t *testing.T) {
		kv := NewKVCache(1 << 20)
		kv.Put([]byte("k"), make([]byte, 100))
		kv.Put([]byte("k"), make([]byte, 10))
		if st := kv.Stats(); st.Entries != 1 || st.Used != kvCharge(1, 10) || st.LogicalUsed != st.Used {
			t.Fatalf("after update: %+v, want 1 entry charging %d", st, kvCharge(1, 10))
		}
	})
}

func TestLogicalBytes(t *testing.T) {
	c := NewBlockCache(1 << 20)
	c.Insert(1, 0, block(100, 'a'), 400)
	c.Insert(1, 4096, block(100, 'b'), 0) // uncompressed: logical = physical
	if st := c.Stats(); st.Used != 200 || st.LogicalUsed != 500 {
		t.Fatalf("used %d logical %d, want 200 and 500", st.Used, st.LogicalUsed)
	}
	c.Resize(0)
	if st := c.Stats(); st.Used != 0 || st.LogicalUsed != 0 {
		t.Fatalf("after eviction: used %d logical %d", st.Used, st.LogicalUsed)
	}
}

func TestOversizedRejected(t *testing.T) {
	t.Run("block", func(t *testing.T) {
		c := NewBlockCache(100)
		c.Insert(1, 0, block(200, 'x'), 0)
		if _, ok := c.Get(1, 0); ok {
			t.Fatal("oversized block admitted")
		}
	})
	t.Run("kv", func(t *testing.T) {
		kv := NewKVCache(50)
		kv.Put([]byte("k"), make([]byte, 100))
		if st := kv.Stats(); st.Entries != 0 || st.Used != 0 {
			t.Fatalf("oversized entry admitted: %+v", st)
		}
	})
}

func TestZeroCapacityAdmitsNothing(t *testing.T) {
	t.Run("block", func(t *testing.T) {
		c := NewBlockCache(0)
		c.Insert(1, 0, block(10, 'x'), 0)
		if st := c.Stats(); st.Entries != 0 || st.Inserts != 0 {
			t.Fatalf("zero-capacity cache admitted a block: %+v", st)
		}
	})
	t.Run("kv", func(t *testing.T) {
		kv := NewKVCache(0)
		kv.Put([]byte("k"), []byte("v"))
		if st := kv.Stats(); st.Entries != 0 || st.Inserts != 0 {
			t.Fatalf("zero-capacity cache admitted an entry: %+v", st)
		}
	})
}

func TestResizeEvictsDown(t *testing.T) {
	t.Run("block", func(t *testing.T) {
		c := NewBlockCache(10_000)
		for i := 0; i < 50; i++ {
			c.Insert(1, uint64(i)*100, block(100, 'x'), 0)
		}
		c.Resize(500)
		if st := c.Stats(); st.Used > 500 || st.Evictions == 0 {
			t.Fatalf("after shrink: %+v", st)
		}
		c.Resize(10_000)
		if got := c.Stats().Capacity; got != 10_000 {
			t.Fatalf("capacity = %d after grow", got)
		}
	})
	t.Run("kv", func(t *testing.T) {
		kv := NewKVCache(1 << 20)
		for i := 0; i < 100; i++ {
			kv.Put([]byte(fmt.Sprintf("key%03d", i)), make([]byte, 50))
		}
		kv.Resize(500)
		if st := kv.Stats(); st.Used > 500 || st.Evictions == 0 {
			t.Fatalf("after shrink: %+v", st)
		}
	})
}

func TestStatsCounters(t *testing.T) {
	t.Run("block", func(t *testing.T) {
		c := NewBlockCache(1 << 20)
		c.Insert(1, 0, block(10, 'a'), 0)
		c.Get(1, 0)
		c.Get(1, 999)
		if st := c.Stats(); st.Hits != 1 || st.Misses != 1 || st.Inserts != 1 || st.Entries != 1 {
			t.Fatalf("stats = %+v", st)
		}
		visits := c.StatLockVisits()
		shards := c.ShardStats()
		if got := c.StatLockVisits() - visits; got != int64(len(shards)) {
			t.Fatalf("ShardStats took %d shard locks, want %d", got, len(shards))
		}
		if Sum(shards) != c.Stats() {
			t.Fatal("Sum(ShardStats()) differs from Stats()")
		}
	})
	t.Run("kv", func(t *testing.T) {
		kv := NewKVCache(1 << 20)
		kv.Put([]byte("k"), []byte("v"))
		kv.Get([]byte("k"))
		kv.Get([]byte("nope"))
		if st := kv.Stats(); st.Hits != 1 || st.Misses != 1 || st.Inserts != 1 || st.Entries != 1 {
			t.Fatalf("stats = %+v", st)
		}
	})
}

func TestAdaptiveShardCount(t *testing.T) {
	small := NewBlockCache(10 << 10) // 10 KiB: one shard, so a 4 KiB block fits
	small.Insert(1, 0, block(4096, 'x'), 0)
	if _, ok := small.Get(1, 0); !ok {
		t.Fatal("small cache cannot admit a 4 KiB block (shard too small)")
	}
	for _, tc := range []struct {
		capacity int64
		shards   int
	}{{10 << 10, 1}, {128 << 10, 2}, {320 << 10, 8}, {1 << 20, 16}, {64 << 20, maxShards}} {
		t.Run(fmt.Sprintf("%dKiB", tc.capacity>>10), func(t *testing.T) {
			if got := len(NewKVCache(tc.capacity).shards); got != tc.shards {
				t.Errorf("%d shards, want %d", got, tc.shards)
			}
			if got := len(NewBlockCache(tc.capacity).shards); got != tc.shards {
				t.Errorf("block cache: %d shards, want %d", got, tc.shards)
			}
		})
	}
}

func TestManyFilesDistribution(t *testing.T) {
	c := NewBlockCache(512 << 10)
	if len(c.shards) != 8 {
		t.Fatalf("shards = %d, want 8", len(c.shards))
	}
	for f := uint64(0); f < 100; f++ {
		for o := uint64(0); o < 4; o++ {
			c.Insert(f, o*4096, block(64, 'z'), 0)
		}
	}
	if n := c.Stats().Entries; n != 400 {
		t.Fatalf("entries = %d", n)
	}
	for i, st := range c.ShardStats() {
		if st.Entries == 0 {
			t.Fatalf("shard %d empty: poor key distribution", i)
		}
	}
}

// TestKVDeterministic: two KV caches built separately and fed the same
// operations at a multi-shard capacity must shard, hit and evict alike.
func TestKVDeterministic(t *testing.T) {
	run := func() (*KVCache, Stats) {
		c := NewKVCache(256 << 10)
		rng := rand.New(rand.NewSource(1))
		v := make([]byte, 100)
		for i := 0; i < 20_000; i++ {
			k := []byte(fmt.Sprintf("user%020d", rng.Intn(4000)))
			if _, ok := c.Get(k); !ok {
				c.Put(k, v)
			}
		}
		return c, c.Stats()
	}
	a, sa := run()
	b, sb := run()
	if len(a.shards) < 2 {
		t.Fatalf("%d shards; the test needs more than one", len(a.shards))
	}
	if sa.Evictions == 0 {
		t.Fatal("no evictions; the test needs capacity pressure")
	}
	if sa != sb {
		t.Fatalf("stats differ:\n%+v\n%+v", sa, sb)
	}
	ka, kb := a.keys(), b.keys()
	sort.Strings(ka)
	sort.Strings(kb)
	if !reflect.DeepEqual(ka, kb) {
		t.Fatal("the caches hold different keys")
	}
}

// TestAllocs pins the hot paths: a hit allocates nothing, including a KV
// Get whose key arrives as []byte at a length the compiler cannot convert
// on the stack. A new block costs its entry and list element; a new KV
// entry also copies its key; an in-place block update costs nothing.
func TestAllocs(t *testing.T) {
	c := NewBlockCache(1 << 20)
	data := make([]byte, 4096)
	for i := uint64(0); i < 1000; i++ {
		c.Insert(1, i*4096, data, 0)
	}
	c.Insert(2, 0, data, 0)
	next := uint64(5000)
	kv := NewKVCache(1 << 20)
	v := make([]byte, 100)
	for i := 0; i < 20_000; i++ {
		kv.Put([]byte(fmt.Sprintf("user%020d", i)), v)
	}
	k16, k64 := []byte("user000000019999"), []byte(fmt.Sprintf("user%060d", 7))
	kv.Put(k16, v)
	kv.Put(k64, v)
	newKeys := make([][]byte, 2000)
	for i := range newKeys {
		newKeys[i] = []byte(fmt.Sprintf("user%020d", 50_000+i))
	}
	nextKey := 0

	for _, tc := range []struct {
		name string
		max  float64
		op   func()
	}{
		{"block Get hit", 0, func() { c.Get(2, 0) }},
		{"block Insert evicting", 2, func() { next++; c.Insert(1, next*4096, data, 0) }},
		{"block Insert update", 0, func() { c.Insert(2, 0, data, 0) }},
		{"KV Get hit, 16-byte key", 0, func() { kv.Get(k16) }},
		{"KV Get hit, 64-byte key", 0, func() { kv.Get(k64) }},
		{"KV Put evicting", 3, func() { kv.Put(newKeys[nextKey%len(newKeys)], v); nextKey++ }},
		{"KV Put update", 1, func() { kv.Put(k64, v) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := testing.AllocsPerRun(1000, tc.op); got > tc.max {
				t.Errorf("%.1f allocations, want <= %.0f", got, tc.max)
			}
		})
	}
	if _, ok := kv.Get(k64); !ok {
		t.Fatal("64-byte key not cached")
	}
}

// TestKVKeyNotAliased: Put copies its key, and Get and Remove, which view
// the key without copying, leave nothing behind that points into it.
func TestKVKeyNotAliased(t *testing.T) {
	kv := NewKVCache(1 << 20)
	k := []byte("key-a")
	kv.Put(k, []byte("va"))
	copy(k, "key-b")
	if _, ok := kv.Get([]byte("key-a")); !ok {
		t.Fatal("rewriting the caller's key buffer changed the cached key")
	}
	if _, ok := kv.Get(k); ok {
		t.Fatal("hit under the rewritten key")
	}
	probe := []byte("key-c")
	kv.Get(probe)
	kv.Put(probe, []byte("vc"))
	kv.Remove([]byte("absent"))
	copy(probe, "key-d")
	if v, ok := kv.Get([]byte("key-c")); !ok || string(v) != "vc" {
		t.Fatalf("Get(key-c) = %q, %v after the probe buffer was rewritten", v, ok)
	}
	if got := kv.keys(); len(got) != 2 {
		t.Fatalf("cached keys %q, want key-a and key-c", got)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := NewBlockCache(1 << 20)
	kv := NewKVCache(64 << 10)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				off := uint64((g*1000 + i) % 500 * 128)
				k := []byte(fmt.Sprintf("key%03d", (g*31+i)%200))
				switch i % 3 {
				case 0:
					c.Insert(uint64(g%3), off, block(64, byte(i)), 0)
					kv.Put(k, make([]byte, 20))
				case 1:
					c.Get(uint64(g%3), off)
					kv.Get(k)
				case 2:
					c.Stats()
					kv.Remove(k)
				}
			}
		}(g)
	}
	wg.Wait()
	for _, st := range []Stats{c.Stats(), kv.Stats()} {
		if st.Used > st.Capacity {
			t.Fatalf("used %d > capacity %d", st.Used, st.Capacity)
		}
	}
}

func ExampleBlockCache() {
	c := NewBlockCache(1 << 20)
	c.Insert(7, 0, []byte("block-bytes"), 0)
	if data, ok := c.Get(7, 0); ok {
		fmt.Println(string(data))
	}
	// Output: block-bytes
}

func ExampleKVCache() {
	c := NewKVCache(1 << 20)
	c.Put([]byte("user42"), []byte("profile"))
	if v, ok := c.Get([]byte("user42")); ok {
		fmt.Println(string(v))
	}
	c.Remove([]byte("user42"))
	_, ok := c.Get([]byte("user42"))
	fmt.Println(ok)
	// Output:
	// profile
	// false
}
