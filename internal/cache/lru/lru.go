// Package lru implements the sharded, byte-budgeted LRU behind the paper's
// BlockCache and KVCache baselines (§5.1) and AdCache's block side.
//
// Cache is generic over its key; each user supplies the shard hash and the
// byte charge of every entry. It has two users. KVCache caches point-lookup
// results by user key. BlockCache adapts it to sstable.BlockCache: entries
// are bound to physical file identity, so compactions leave dead entries
// behind — the invalidation weakness the paper's range cache addresses.
// Capacity can be resized at runtime; AdCache moves the boundary between
// block and range cache by resizing both.
package lru

import (
	"container/list"
	"sync"
	"sync/atomic"
	"unsafe"
)

// maxShards balances lock contention against shard-budget fragmentation.
const maxShards = 16

// Cache is a sharded LRU. It is safe for concurrent use: each shard has its
// own mutex, and the counters live on the shards (counted under the shard
// lock, so they cost nothing extra on the hot path). Stats aggregates them
// and ShardStats exposes the per-shard view for metrics.
type Cache[K comparable] struct {
	shards []*shard[K]
	mask   uint64
	hash   func(K) uint64
	// perShard is every shard's budget, the largest entry Put accepts.
	perShard atomic.Int64
	// statLocks counts shard locks taken by ShardStats; tests pin the
	// one-visit-per-scrape rule with it.
	statLocks atomic.Int64
}

type shard[K comparable] struct {
	mu       sync.Mutex
	capacity int64
	used     int64      // charged bytes held (what the budget counts)
	logical  int64      // logical bytes the held values stand for
	ll       *list.List // front = most recent
	items    map[K]*list.Element

	hits      int64
	misses    int64
	inserts   int64
	evictions int64
}

type entry[K comparable] struct {
	key     K
	value   []byte
	charge  int64
	logical int64
}

// newCache returns a cache with the given total byte capacity, sharded by hash.
// The shard count adapts to the budget (one shard per 64 KiB, at most 16,
// rounded up to a power of two), so small caches keep shards large enough
// to admit a 4 KiB block.
func newCache[K comparable](capacity int64, hash func(K) uint64) *Cache[K] {
	return newShards(capacity, int(capacity/(64<<10)), hash)
}

func newShards[K comparable](capacity int64, numShards int, hash func(K) uint64) *Cache[K] {
	n := 1
	for n < numShards && n < maxShards {
		n *= 2
	}
	c := &Cache[K]{shards: make([]*shard[K], n), mask: uint64(n - 1), hash: hash}
	c.perShard.Store(capacity / int64(n))
	for i := range c.shards {
		c.shards[i] = &shard[K]{
			capacity: capacity / int64(n),
			ll:       list.New(),
			items:    make(map[K]*list.Element),
		}
	}
	return c
}

func (c *Cache[K]) shardFor(k K) *shard[K] { return c.shards[c.hash(k)&c.mask] }

// Get returns the value cached under k and marks it most recently used. It
// does not retain k.
func (c *Cache[K]) Get(k K) ([]byte, bool) {
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.items[k]; ok {
		s.ll.MoveToFront(e)
		s.hits++
		return e.Value.(*entry[K]).value, true
	}
	s.misses++
	return nil, false
}

// Put caches value under k, charging charge bytes against the budget;
// logical is the size the value stands for (larger than charge for a
// compressed block). An existing entry is updated in place; a new entry
// larger than its whole shard is refused. Least recently used entries are
// evicted until the shard fits its budget.
func (c *Cache[K]) Put(k K, value []byte, charge, logical int64) {
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.capacity <= 0 {
		return
	}
	if e, ok := s.items[k]; ok {
		old := e.Value.(*entry[K])
		s.used += charge - old.charge
		s.logical += logical - old.logical
		old.value, old.charge, old.logical = value, charge, logical
		s.ll.MoveToFront(e)
	} else {
		if charge > s.capacity {
			return
		}
		s.items[k] = s.ll.PushFront(&entry[K]{key: k, value: value, charge: charge, logical: logical})
		s.used += charge
		s.logical += logical
		s.inserts++
	}
	s.evictLocked()
}

// Remove drops k, if cached. It does not retain k.
func (c *Cache[K]) Remove(k K) {
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.items[k]; ok {
		s.removeLocked(e)
	}
}

func (s *shard[K]) removeLocked(e *list.Element) {
	ent := e.Value.(*entry[K])
	s.ll.Remove(e)
	delete(s.items, ent.key)
	s.used -= ent.charge
	s.logical -= ent.logical
}

func (s *shard[K]) evictLocked() {
	for s.used > s.capacity {
		back := s.ll.Back()
		if back == nil {
			return
		}
		s.removeLocked(back)
		s.evictions++
	}
}

// Resize changes the total capacity, splitting it evenly across the shards
// and evicting as needed. AdCache calls this when the RL agent moves the
// cache boundary.
func (c *Cache[K]) Resize(capacity int64) {
	per := capacity / int64(len(c.shards))
	c.perShard.Store(per)
	for _, s := range c.shards {
		s.mu.Lock()
		s.capacity = per
		s.evictLocked()
		s.mu.Unlock()
	}
}

// Stats is a snapshot of cache counters. Used counts charged bytes (for
// the block cache, the physical bytes resident); LogicalUsed counts what
// those entries stand for (for the block cache, the decoded block bytes).
type Stats struct {
	Hits        int64
	Misses      int64
	Inserts     int64
	Evictions   int64
	Used        int64
	LogicalUsed int64
	Capacity    int64
	Entries     int
}

// Stats returns the cache counters aggregated over shards.
func (c *Cache[K]) Stats() Stats { return Sum(c.ShardStats()) }

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
		st.Entries += s.Entries
	}
	return st
}

// ShardStats returns one counter snapshot per shard, in shard order — the
// per-shard observability view (shard imbalance shows up here first).
func (c *Cache[K]) ShardStats() []Stats {
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
			Entries:     len(s.items),
		}
		s.mu.Unlock()
	}
	return out
}

// StatLockVisits reports how many shard locks ShardStats (and so Stats) has
// taken — a test hook for the scrape-cost pin.
func (c *Cache[K]) StatLockVisits() int64 { return c.statLocks.Load() }

type blockKey struct{ fileNum, offset uint64 }

// BlockCache is the RocksDB-style block cache: a Cache of physical SSTable
// block images keyed by (file number, offset). It implements
// sstable.BlockCache and admits every block, like RocksDB's default.
type BlockCache struct{ *Cache[blockKey] }

// NewBlockCache returns a block cache with the given byte capacity.
func NewBlockCache(capacity int64) *BlockCache {
	return &BlockCache{newCache(capacity, blockHash)}
}

func blockHash(k blockKey) uint64 {
	h := k.fileNum*0x9e3779b97f4a7c15 ^ k.offset*0xc2b2ae3d27d4eb4f
	return h ^ h>>29
}

// Get implements sstable.BlockCache.
func (b *BlockCache) Get(fileNum, offset uint64) ([]byte, bool) {
	return b.Cache.Get(blockKey{fileNum, offset})
}

// Fits implements sstable.BlockCache: it reports whether Insert would keep
// a block image of size bytes, and the sstable reader reads a block it will
// not offer into scratch instead of a buffer of its own. At a zero budget (AdCache has moved it all to the
// range cache) no block fits.
func (b *BlockCache) Fits(size int) bool {
	per := b.perShard.Load()
	return per > 0 && int64(size) <= per
}

// Insert implements sstable.BlockCache. data is the block's physical image
// and logical its decoded size; the budget charges physical bytes — the
// memory actually resident — while the logical total feeds the
// physical/logical ratio the RL state vector observes.
func (b *BlockCache) Insert(fileNum, offset uint64, data []byte, logical int) {
	b.Put(blockKey{fileNum, offset}, data, int64(len(data)), max(int64(logical), int64(len(data))))
}

// Remove implements sstable.BlockCache.
func (b *BlockCache) Remove(fileNum, offset uint64) {
	b.Cache.Remove(blockKey{fileNum, offset})
}

// kvEntryOverhead matches the range cache's per-entry bookkeeping charge so
// the two result caches compare under equal effective capacity (the paper
// treats them as "identical" pure KV caches in point-only workloads).
const kvEntryOverhead = 64

// KVCache is the paper's "KV Cache" baseline: a Cache of point-lookup
// results keyed by the user key. Its shard hash is seedless, so two caches
// fed the same operations hold the same entries.
type KVCache struct{ *Cache[string] }

// NewKVCache returns a KV cache with the given byte capacity.
func NewKVCache(capacity int64) *KVCache {
	return &KVCache{newCache(capacity, kvHash)}
}

// kvHash is FNV-1a, folded so the shard mask sees the well-mixed high bits.
func kvHash(k string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(k); i++ {
		h = (h ^ uint64(k[i])) * 1099511628211
	}
	return h ^ h>>32
}

// transient views key as a string without copying. Only for Cache.Get and
// Cache.Remove, which do not retain their key.
func transient(key []byte) string { return unsafe.String(unsafe.SliceData(key), len(key)) }

// Get returns the cached value for key.
func (c *KVCache) Get(key []byte) ([]byte, bool) { return c.Cache.Get(transient(key)) }

// Put caches value under key, charging the key, the value and a fixed
// per-entry overhead.
func (c *KVCache) Put(key, value []byte) {
	charge := int64(len(key)+len(value)) + kvEntryOverhead
	c.Cache.Put(string(key), value, charge, charge)
}

// Remove drops key, if cached.
func (c *KVCache) Remove(key []byte) { c.Cache.Remove(transient(key)) }
