// Package kvcache implements the paper's "KV Cache" baseline: a byte-
// budgeted LRU of point-lookup results (key → value). Scans bypass it
// entirely, which is exactly why the baseline flatlines on scan-heavy
// workloads (Figure 7b/7d).
package kvcache

import (
	"container/list"
	"hash/maphash"
	"sync"
)

// DefaultShards balances lock contention against shard-budget fragmentation,
// matching the block cache's shard ceiling.
const DefaultShards = 16

// Cache is a sharded LRU key-value cache. It is safe for concurrent use:
// each shard has its own mutex, so point lookups on different shards never
// contend. Counters live on the shards (counted under the shard lock);
// Stats aggregates them and ShardStats exposes the per-shard view.
type Cache struct {
	shards []*shard
	mask   uint64
	seed   maphash.Seed
}

type shard struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	ll       *list.List // front = most recent
	items    map[string]*list.Element

	hits      int64
	misses    int64
	evictions int64
}

type entry struct {
	key   string
	value []byte
}

// entryOverhead matches the range cache's per-entry bookkeeping charge so
// the two result caches compare under equal effective capacity (the paper
// treats them as "identical" pure KV caches in point-only workloads).
const entryOverhead = 64

func (e *entry) size() int64 { return int64(len(e.key)+len(e.value)) + entryOverhead }

// New returns a cache with the given byte capacity. The shard count adapts
// to the budget (one shard per 64 KiB, capped at DefaultShards), so small
// caches stay single-sharded and keep exact global LRU order.
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
	c := &Cache{shards: make([]*shard, n), mask: uint64(n - 1), seed: maphash.MakeSeed()}
	for i := range c.shards {
		c.shards[i] = &shard{
			capacity: capacity / int64(n),
			ll:       list.New(),
			items:    make(map[string]*list.Element),
		}
	}
	return c
}

func (c *Cache) shardFor(key []byte) *shard {
	if len(c.shards) == 1 {
		return c.shards[0]
	}
	return c.shards[maphash.Bytes(c.seed, key)&c.mask]
}

// Get returns the cached value for key.
func (c *Cache) Get(key []byte) ([]byte, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.items[string(key)]; ok {
		s.ll.MoveToFront(e)
		s.hits++
		return e.Value.(*entry).value, true
	}
	s.misses++
	return nil, false
}

// Put inserts or updates key.
func (c *Cache) Put(key, value []byte) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	k := string(key)
	if e, ok := s.items[k]; ok {
		old := e.Value.(*entry)
		s.used += int64(len(value)) - int64(len(old.value))
		old.value = value
		s.ll.MoveToFront(e)
	} else {
		e := &entry{key: k, value: value}
		if e.size() > s.capacity {
			return
		}
		s.items[k] = s.ll.PushFront(e)
		s.used += e.size()
	}
	s.evictLocked()
}

// Invalidate removes key (writes and deletes).
func (c *Cache) Invalidate(key []byte) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.items[string(key)]; ok {
		ent := e.Value.(*entry)
		s.used -= ent.size()
		s.ll.Remove(e)
		delete(s.items, ent.key)
	}
}

func (s *shard) evictLocked() {
	for s.used > s.capacity {
		back := s.ll.Back()
		if back == nil {
			return
		}
		ent := back.Value.(*entry)
		s.ll.Remove(back)
		delete(s.items, ent.key)
		s.used -= ent.size()
		s.evictions++
	}
}

// Resize changes the total byte capacity, splitting it evenly across the
// existing shards and evicting as needed.
func (c *Cache) Resize(capacity int64) {
	per := capacity / int64(len(c.shards))
	for _, s := range c.shards {
		s.mu.Lock()
		s.capacity = per
		s.evictLocked()
		s.mu.Unlock()
	}
}

// Stats reports counters.
type Stats struct {
	Hits, Misses, Evictions int64
	Used, Capacity          int64
	Entries                 int
}

// Stats returns the cache counters aggregated over shards.
func (c *Cache) Stats() Stats { return Sum(c.ShardStats()) }

// Sum aggregates per-shard snapshots, as returned by ShardStats.
func Sum(shards []Stats) Stats {
	var st Stats
	for _, s := range shards {
		st.Hits += s.Hits
		st.Misses += s.Misses
		st.Evictions += s.Evictions
		st.Used += s.Used
		st.Capacity += s.Capacity
		st.Entries += s.Entries
	}
	return st
}

// ShardStats returns one counter snapshot per shard, in shard order.
func (c *Cache) ShardStats() []Stats {
	out := make([]Stats, len(c.shards))
	for i, s := range c.shards {
		s.mu.Lock()
		out[i] = Stats{
			Hits:      s.hits,
			Misses:    s.misses,
			Evictions: s.evictions,
			Used:      s.used,
			Capacity:  s.capacity,
			Entries:   len(s.items),
		}
		s.mu.Unlock()
	}
	return out
}

// Len reports the entry count.
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += len(s.items)
		s.mu.Unlock()
	}
	return n
}
