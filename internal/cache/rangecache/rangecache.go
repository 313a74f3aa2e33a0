// Package rangecache implements the result-based cache of Wang et al.
// (ICDE'24) that the paper builds on: query results are stored as sorted
// key-value entries decoupled from the physical SSTable layout, so the cache
// survives compactions. Contiguity metadata lets fully-covered range scans
// be answered without touching the LSM tree.
//
// Coherence: the owning strategy routes every write through Put/Delete, so
// the cache is always a subset of the live database — contiguity claims stay
// truthful across updates (in-place), inserts into covered gaps (admitted
// with the known value) and deletes (neighbouring claims merge).
//
// Concurrency (§4.4 of the paper): the key space is range-partitioned into
// shards, each with its own lock. A scan is served entirely by the shard
// owning its start key; chains that would cross a shard boundary count as
// misses, a small, documented fidelity cost of partitioned locking.
package rangecache

import (
	"sort"
	"sync"
	"sync/atomic"

	"adcache/internal/cache/policy"
)

// KV mirrors lsm.KV without importing it (the strategy layer converts).
type KV struct {
	Key   []byte
	Value []byte
}

// Options configures a Cache.
type Options struct {
	// Capacity is the byte budget across all shards.
	Capacity int64
	// Policy names the eviction policy: "lru" (default), "lfu", "lecar",
	// "cacheus".
	Policy string
	// PolicyCapacityHint estimates the entry count for policies that size
	// ghost lists (defaults to Capacity/128).
	PolicyCapacityHint int
	// SplitKeys are the shard boundaries; len(SplitKeys)+1 shards are
	// created. Empty means a single shard.
	SplitKeys []string
	// Seed makes skiplist shapes deterministic.
	Seed int64
}

// Stats aggregates cache counters.
type Stats struct {
	GetHits, GetMisses   int64
	ScanHits, ScanMisses int64
	// ScanPartials counts scans that matched a covered prefix but could not
	// prove full coverage — they fall through to the LSM tree (the paper's
	// "partial hits still incur the full cost of an LSM-tree seek").
	ScanPartials int64
	Evictions    int64
	Used         int64
	Capacity     int64
	Entries      int
}

// Cache is a sharded result cache. It is safe for concurrent use.
type Cache struct {
	shards []*shard
	splits []string
	// capacity is the sum of the shard budgets, kept here so the admission
	// path can read it without visiting every shard lock.
	capacity atomic.Int64
}

type shard struct {
	mu       sync.Mutex
	list     *skiplist
	pol      policy.Policy
	capacity int64
	used     int64

	getHits, getMisses   int64
	scanHits, scanMisses int64
	scanPartials         int64
	evictions            int64
}

// New returns a Cache configured by opts.
func New(opts Options) *Cache {
	numShards := len(opts.SplitKeys) + 1
	hint := opts.PolicyCapacityHint
	if hint <= 0 {
		hint = int(opts.Capacity / 128)
		if hint < 16 {
			hint = 16
		}
	}
	c := &Cache{splits: opts.SplitKeys}
	per := opts.Capacity / int64(numShards)
	c.capacity.Store(per * int64(numShards))
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	for i := 0; i < numShards; i++ {
		c.shards = append(c.shards, &shard{
			list:     newSkiplist(seed + int64(i)),
			pol:      policy.New(opts.Policy, hint/numShards+1),
			capacity: per,
		})
	}
	return c
}

// shardFor returns the shard owning key.
func (c *Cache) shardFor(key string) *shard {
	i := sort.SearchStrings(c.splits, key)
	// splits[i-1] <= key < splits[i] → shard i... SearchStrings returns the
	// first split >= key; keys below splits[0] belong to shard 0.
	if i < len(c.splits) && c.splits[i] == key {
		i++
	}
	return c.shards[i]
}

// shardUpper returns the exclusive upper boundary of the shard owning key,
// or "" when unbounded.
func (c *Cache) shardUpper(key string) string {
	i := sort.SearchStrings(c.splits, key)
	if i < len(c.splits) && c.splits[i] == key {
		i++
	}
	if i < len(c.splits) {
		return c.splits[i]
	}
	return ""
}

// Get returns the cached value for key.
func (c *Cache) Get(key []byte) ([]byte, bool) {
	s := c.shardFor(string(key))
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := s.list.get(string(key)); n != nil {
		s.pol.OnAccess(n.entry.key)
		s.getHits++
		return n.entry.value, true
	}
	s.pol.OnMiss(string(key))
	s.getMisses++
	return nil, false
}

// Scan returns the first n pairs at or after start if the cache can prove
// it holds the full contiguous prefix; ok=false otherwise.
func (c *Cache) Scan(start []byte, n int) ([]KV, bool) {
	startKey := string(start)
	s := c.shardFor(startKey)
	s.mu.Lock()
	defer s.mu.Unlock()

	node := s.list.findGE(startKey, nil)
	if node == nil {
		s.scanMisses++
		s.pol.OnMiss(startKey)
		return nil, false
	}
	e := node.entry
	// Anchor check: is e provably the first database key >= start?
	covered := e.key == startKey ||
		(e.lowerBound != "" && e.lowerBound <= startKey)
	if !covered {
		if p := s.list.findLT(startKey); p != nil && p.entry.contigNext {
			covered = true
		}
	}
	if !covered {
		s.scanMisses++
		s.pol.OnMiss(startKey)
		return nil, false
	}

	out := make([]KV, 0, n)
	for {
		out = append(out, KV{Key: []byte(node.entry.key), Value: node.entry.value})
		if len(out) == n {
			break
		}
		if !node.entry.contigNext || node.next[0] == nil {
			s.scanPartials++
			s.pol.OnMiss(startKey)
			return nil, false
		}
		node = node.next[0]
	}
	for _, kv := range out {
		s.pol.OnAccess(string(kv.Key))
	}
	s.scanHits++
	return out, true
}

// CoveredLen reports how many consecutive result entries starting at start
// the cache could already serve — the length of the anchored contiguous
// chain, capped at max. AdCache's partial admission uses it to extend
// coverage incrementally: each repetition of a long scan admits b·(l−a)
// entries past what is already covered (§3.4, "overlapping scans naturally
// accelerate this process").
func (c *Cache) CoveredLen(start []byte, max int) int {
	startKey := string(start)
	s := c.shardFor(startKey)
	s.mu.Lock()
	defer s.mu.Unlock()

	node := s.list.findGE(startKey, nil)
	if node == nil {
		return 0
	}
	e := node.entry
	covered := e.key == startKey || (e.lowerBound != "" && e.lowerBound <= startKey)
	if !covered {
		if p := s.list.findLT(startKey); p != nil && p.entry.contigNext {
			covered = true
		}
	}
	if !covered {
		return 0
	}
	n := 0
	for node != nil && n < max {
		n++
		if !node.entry.contigNext {
			break
		}
		node = node.next[0]
	}
	return n
}

// InsertPoint admits a point-lookup result (no contiguity claims).
func (c *Cache) InsertPoint(key, value []byte) {
	s := c.shardFor(string(key))
	s.mu.Lock()
	defer s.mu.Unlock()
	s.upsertLocked(string(key), value, false, "")
	s.enforceCapacityLocked()
}

// InsertScan admits a scan result: entries are consecutive database keys
// starting at the first key >= start. Callers may pass a truncated prefix
// (partial admission); the contiguity claims remain truthful for any prefix.
func (c *Cache) InsertScan(start []byte, entries []KV) {
	if len(entries) == 0 {
		return
	}
	startKey := string(start)
	i := 0
	for i < len(entries) {
		key0 := string(entries[i].Key)
		s := c.shardFor(key0)
		upper := c.shardUpper(key0)
		s.mu.Lock()
		// Collect this shard's slice of the result.
		j := i
		for j < len(entries) && (upper == "" || string(entries[j].Key) < upper) {
			j++
		}
		// Insert in reverse so that when an entry's contiguity claim is
		// recorded, its successor is already present as its cache neighbour.
		for k := j - 1; k >= i; k-- {
			key := string(entries[k].Key)
			contig := k < j-1 // contiguity only within the shard slice
			lb := ""
			if k == 0 && startKey < key {
				lb = startKey
			}
			s.upsertLocked(key, entries[k].Value, contig, lb)
		}
		s.enforceCapacityLocked()
		s.mu.Unlock()
		i = j
	}
}

// upsertLocked inserts or updates an entry. contig only ever strengthens
// when the caller proves adjacency; updates preserve an existing stronger
// claim. lb likewise only widens coverage.
func (s *shard) upsertLocked(key string, value []byte, contig bool, lb string) {
	if n := s.list.get(key); n != nil {
		e := n.entry
		s.used += int64(len(value)) - int64(len(e.value))
		e.value = value
		if contig {
			// The caller proved the DB successor is cached (reverse-order
			// insertion guarantees it is already this entry's neighbour).
			e.contigNext = true
		}
		if lb != "" && (e.lowerBound == "" || lb < e.lowerBound) {
			e.lowerBound = lb
		}
		s.pol.OnAccess(key)
		return
	}
	// contigNext is truthful because the cache is a subset of the database:
	// the scan saw every DB key between this entry and its successor, so no
	// cached key can sit between them.
	e := &entry{key: key, value: value, lowerBound: lb, contigNext: contig}
	s.list.insert(e)
	s.used += e.size()
	s.pol.OnInsert(key)
}

// Put applies a write: update in place, or admit into a covered gap to keep
// coverage claims truthful. Writes outside covered regions are not admitted
// (result caches store query results, not write traffic).
func (c *Cache) Put(key, value []byte) {
	keyStr := string(key)
	s := c.shardFor(keyStr)
	s.mu.Lock()
	defer s.mu.Unlock()

	if n := s.list.get(keyStr); n != nil {
		s.used += int64(len(value)) - int64(len(n.entry.value))
		n.entry.value = append([]byte(nil), value...)
		s.pol.OnAccess(keyStr)
		s.enforceCapacityLocked()
		return
	}

	// A new DB key inside a covered gap is admitted so the claims around it
	// stay truthful. The gap can be covered from below — p's contiguity
	// claim over (p.key, q.key) — and from above — q's lower bound over
	// [lb, q.key) — and both must learn of the key: it joins p's chain, and
	// takes over the part of q's bound that still holds, [lb, key).
	p := s.list.findLT(keyStr)
	q := s.list.findGE(keyStr, nil)
	chained := p != nil && p.entry.contigNext && q != nil
	bounded := q != nil && q.entry.lowerBound != "" && q.entry.lowerBound <= keyStr
	if chained || bounded {
		e := &entry{key: keyStr, value: append([]byte(nil), value...), contigNext: true}
		if bounded {
			e.lowerBound, q.entry.lowerBound = q.entry.lowerBound, ""
		}
		s.list.insert(e)
		s.used += e.size()
		s.pol.OnInsert(keyStr)
	}
	s.enforceCapacityLocked()
}

// Delete applies a database delete: the key leaves the cache, and because it
// also left the database, neighbouring coverage claims merge.
func (c *Cache) Delete(key []byte) {
	keyStr := string(key)
	s := c.shardFor(keyStr)
	s.mu.Lock()
	defer s.mu.Unlock()

	n := s.list.get(keyStr)
	if n == nil {
		return // covered-gap keys cannot exist in the DB; nothing to fix
	}
	p := s.list.findLT(keyStr)
	next := n.next[0]
	e := s.list.remove(keyStr)
	s.used -= e.size()
	s.pol.OnRemove(keyStr)

	// Merge coverage across the removed key. The deleted key no longer
	// exists in the DB, so emptiness claims on both sides compose.
	if p != nil {
		p.entry.contigNext = p.entry.contigNext && e.contigNext && next != nil
	}
	if next != nil && e.contigNext && e.lowerBound != "" {
		if next.entry.lowerBound == "" || e.lowerBound < next.entry.lowerBound {
			next.entry.lowerBound = e.lowerBound
		}
	}
}

// evictLocked removes a policy-chosen victim. Unlike Delete, the key still
// exists in the database, so claims through it must break.
func (s *shard) evictLocked() bool {
	victim, ok := s.pol.Evict()
	if !ok {
		return false
	}
	p := s.list.findLT(victim)
	e := s.list.remove(victim)
	if e == nil {
		return true // policy tracked a key the list lost; counters move on
	}
	s.used -= e.size()
	s.evictions++
	if p != nil {
		p.entry.contigNext = false
	}
	return true
}

func (s *shard) enforceCapacityLocked() {
	for s.used > s.capacity {
		if !s.evictLocked() {
			return
		}
	}
}

// Resize changes the byte budget, evicting as needed.
func (c *Cache) Resize(capacity int64) {
	per := capacity / int64(len(c.shards))
	c.capacity.Store(per * int64(len(c.shards)))
	for _, s := range c.shards {
		s.mu.Lock()
		s.capacity = per
		s.enforceCapacityLocked()
		s.mu.Unlock()
	}
}

// Stats returns aggregated counters.
func (c *Cache) Stats() Stats {
	var st Stats
	for _, s := range c.shards {
		s.mu.Lock()
		st.GetHits += s.getHits
		st.GetMisses += s.getMisses
		st.ScanHits += s.scanHits
		st.ScanMisses += s.scanMisses
		st.ScanPartials += s.scanPartials
		st.Evictions += s.evictions
		st.Used += s.used
		st.Capacity += s.capacity
		st.Entries += s.list.len()
		s.mu.Unlock()
	}
	return st
}

// ShardStats returns one counter snapshot per shard, in shard order.
// Shards map to key ranges (§4.4), so a hot range shows up as one shard's
// hit and eviction counters running away from its siblings'.
func (c *Cache) ShardStats() []Stats {
	out := make([]Stats, len(c.shards))
	for i, s := range c.shards {
		s.mu.Lock()
		out[i] = Stats{
			GetHits:      s.getHits,
			GetMisses:    s.getMisses,
			ScanHits:     s.scanHits,
			ScanMisses:   s.scanMisses,
			ScanPartials: s.scanPartials,
			Evictions:    s.evictions,
			Used:         s.used,
			Capacity:     s.capacity,
			Entries:      s.list.len(),
		}
		s.mu.Unlock()
	}
	return out
}

// Len reports the total entry count.
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.list.len()
		s.mu.Unlock()
	}
	return n
}

// Used reports cached bytes.
func (c *Cache) Used() int64 {
	var used int64
	for _, s := range c.shards {
		s.mu.Lock()
		used += s.used
		s.mu.Unlock()
	}
	return used
}

// Capacity reports the configured byte budget.
func (c *Cache) Capacity() int64 { return c.capacity.Load() }
