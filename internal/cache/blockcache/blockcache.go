// Package blockcache implements the RocksDB-style block cache: a sharded,
// byte-budgeted LRU over SSTable data blocks keyed by (file number, offset).
//
// Entries are bound to physical file identity, so compactions leave dead
// entries behind — the invalidation weakness the paper's range cache
// addresses. Capacity can be resized at runtime; AdCache moves the boundary
// between block and range cache by resizing both.
package blockcache

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// DefaultShards balances lock contention against shard-budget fragmentation.
const DefaultShards = 16

// Cache is a sharded LRU block cache. It is safe for concurrent use.
// Counters live on the shards (counted under each shard's lock, so they
// cost nothing extra on the hot path); Stats aggregates them and
// ShardStats exposes the per-shard view for metrics.
type Cache struct {
	shards []*shard
	mask   uint64
	// statLocks counts shard locks taken by ShardStats; tests pin the
	// one-visit-per-scrape rule with it.
	statLocks atomic.Int64
}

type shard struct {
	mu       sync.Mutex
	capacity int64
	used     int64      // physical bytes held (what the budget charges)
	logical  int64      // decoded bytes the held blocks expand to
	ll       *list.List // front = most recent
	items    map[blockKey]*list.Element

	hits      int64
	misses    int64
	inserts   int64
	evictions int64
}

type blockKey struct {
	fileNum uint64
	offset  uint64
}

// entry holds one cached physical block image. logical is its decoded size:
// equal to len(data) for uncompressed blocks, larger for compressed ones.
// The byte budget charges physical bytes — the memory actually resident —
// while the logical total feeds the physical/logical ratio the RL state
// vector observes.
type entry struct {
	key     blockKey
	data    []byte
	logical int64
}

// New returns a cache with the given total byte capacity. The shard count
// adapts to the budget (one shard per 64 KiB, capped at DefaultShards) so
// that small caches keep shards large enough to admit 4 KiB blocks.
func New(capacity int64) *Cache {
	shards := int(capacity / (64 << 10))
	if shards > DefaultShards {
		shards = DefaultShards
	}
	if shards < 1 {
		shards = 1
	}
	return NewShards(capacity, shards)
}

// NewShards returns a cache with an explicit power-of-two shard count.
func NewShards(capacity int64, numShards int) *Cache {
	if numShards < 1 {
		numShards = 1
	}
	// Round up to a power of two for mask indexing.
	n := 1
	for n < numShards {
		n *= 2
	}
	c := &Cache{shards: make([]*shard, n), mask: uint64(n - 1)}
	for i := range c.shards {
		c.shards[i] = &shard{
			capacity: capacity / int64(n),
			ll:       list.New(),
			items:    make(map[blockKey]*list.Element),
		}
	}
	return c
}

func (c *Cache) shardFor(k blockKey) *shard {
	h := k.fileNum*0x9e3779b97f4a7c15 ^ k.offset*0xc2b2ae3d27d4eb4f
	h ^= h >> 29
	return c.shards[h&c.mask]
}

// Get implements sstable.BlockCache.
func (c *Cache) Get(fileNum, offset uint64) ([]byte, bool) {
	k := blockKey{fileNum, offset}
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.items[k]; ok {
		s.ll.MoveToFront(e)
		s.hits++
		return e.Value.(*entry).data, true
	}
	s.misses++
	return nil, false
}

// Insert implements sstable.BlockCache. data is the block's physical image
// and logical its decoded size; the budget charges physical bytes. The scan
// flag is accepted for interface compatibility; the plain block cache admits
// everything, like RocksDB's default.
func (c *Cache) Insert(fileNum, offset uint64, data []byte, logical int, scan bool) {
	c.insert(fileNum, offset, data, int64(logical))
}

func (c *Cache) insert(fileNum, offset uint64, data []byte, logical int64) {
	if logical < int64(len(data)) {
		logical = int64(len(data))
	}
	k := blockKey{fileNum, offset}
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.capacity <= 0 {
		return
	}
	if e, ok := s.items[k]; ok {
		old := e.Value.(*entry)
		s.used += int64(len(data)) - int64(len(old.data))
		s.logical += logical - old.logical
		old.data = data
		old.logical = logical
		s.ll.MoveToFront(e)
	} else {
		if int64(len(data)) > s.capacity {
			return // larger than the whole shard: never admit
		}
		s.items[k] = s.ll.PushFront(&entry{key: k, data: data, logical: logical})
		s.used += int64(len(data))
		s.logical += logical
		s.inserts++
	}
	s.evictLocked()
}

func (s *shard) evictLocked() {
	for s.used > s.capacity {
		back := s.ll.Back()
		if back == nil {
			return
		}
		e := back.Value.(*entry)
		s.ll.Remove(back)
		delete(s.items, e.key)
		s.used -= int64(len(e.data))
		s.logical -= e.logical
		s.evictions++
	}
}

// Resize changes the total capacity, evicting as needed. AdCache calls this
// when the RL agent moves the cache boundary.
func (c *Cache) Resize(capacity int64) {
	per := capacity / int64(len(c.shards))
	for _, s := range c.shards {
		s.mu.Lock()
		s.capacity = per
		s.evictLocked()
		s.mu.Unlock()
	}
}

// Used reports the cached physical byte total — the resident memory the
// cache's budget charges.
func (c *Cache) Used() int64 {
	var used int64
	for _, s := range c.shards {
		s.mu.Lock()
		used += s.used
		s.mu.Unlock()
	}
	return used
}

// LogicalUsed reports the decoded byte total of the cached blocks. With
// compression off it equals Used; the Used/LogicalUsed ratio is the cache's
// effective compression factor.
func (c *Cache) LogicalUsed() int64 {
	var logical int64
	for _, s := range c.shards {
		s.mu.Lock()
		logical += s.logical
		s.mu.Unlock()
	}
	return logical
}

// Capacity reports the configured byte budget.
func (c *Cache) Capacity() int64 {
	var capacity int64
	for _, s := range c.shards {
		s.mu.Lock()
		capacity += s.capacity
		s.mu.Unlock()
	}
	return capacity
}

// Len reports the number of cached blocks.
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += len(s.items)
		s.mu.Unlock()
	}
	return n
}

// Stats is a snapshot of cache counters. Used counts physical (resident)
// bytes; LogicalUsed counts what those blocks decode to.
type Stats struct {
	Hits        int64
	Misses      int64
	Inserts     int64
	Evictions   int64
	Used        int64
	LogicalUsed int64
	Capacity    int64
	Blocks      int
}

// Stats returns the cache counters aggregated over shards.
func (c *Cache) Stats() Stats { return Sum(c.ShardStats()) }

// Sum aggregates per-shard snapshots, as returned by ShardStats.
func Sum(shards []Stats) Stats {
	var st Stats
	for _, s := range shards {
		st.Hits += s.Hits
		st.Misses += s.Misses
		st.Inserts += s.Inserts
		st.Evictions += s.Evictions
		st.Used += s.Used
		st.LogicalUsed += s.LogicalUsed
		st.Capacity += s.Capacity
		st.Blocks += s.Blocks
	}
	return st
}

// ShardStats returns one counter snapshot per shard, in shard order — the
// per-shard observability view (shard imbalance shows up here first).
func (c *Cache) ShardStats() []Stats {
	out := make([]Stats, len(c.shards))
	c.statLocks.Add(int64(len(c.shards)))
	for i, s := range c.shards {
		s.mu.Lock()
		out[i] = Stats{
			Hits:        s.hits,
			Misses:      s.misses,
			Inserts:     s.inserts,
			Evictions:   s.evictions,
			Used:        s.used,
			LogicalUsed: s.logical,
			Capacity:    s.capacity,
			Blocks:      len(s.items),
		}
		s.mu.Unlock()
	}
	return out
}

// StatLockVisits reports how many shard locks ShardStats (and so Stats) has
// taken — a test hook for the scrape-cost pin.
func (c *Cache) StatLockVisits() int64 { return c.statLocks.Load() }
