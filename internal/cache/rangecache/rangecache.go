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
// Cost: every public operation performs exactly one descent of its shard's
// ordered index, and a scan admission or a run of evictions performs one for
// the whole batch (see skiplist). Entries are found by key bytes, tracked by
// the eviction policy through a handle embedded in the entry, and admitted
// with one allocation each.
//
// Concurrency (§4.4 of the paper): the key space is range-partitioned into
// shards, each with its own lock. A scan is served entirely by the shard
// owning its start key; chains that would cross a shard boundary count as
// misses, a small, documented fidelity cost of partitioned locking.
package rangecache

import (
	"bytes"
	"sort"
	"sync"
	"sync/atomic"

	"adcache/internal/cache/policy"
	"adcache/internal/keys"
)

// KV is one key-value pair of a scan result.
type KV = keys.KV

// Options configures a Cache.
type Options struct {
	// Capacity is the byte budget across all shards.
	Capacity int64
	// Policy names the eviction policy: "lru" (default), "lfu", "arc",
	// "lecar", "cacheus".
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
	// splits[i] is the first key of shard i+1.
	splits [][]byte
	// capacity is the sum of the shard budgets, kept here so the admission
	// path can read it without visiting every shard lock.
	capacity atomic.Int64
	// statLocks counts shard locks taken by ShardStats; tests pin the
	// one-visit-per-scrape rule with it.
	statLocks atomic.Int64
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
	c := &Cache{}
	for _, split := range opts.SplitKeys {
		c.splits = append(c.splits, []byte(split))
	}
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

// shardIndex returns the index of the shard owning key: the number of
// split keys at or below it.
func (c *Cache) shardIndex(key []byte) int {
	if len(c.splits) == 0 {
		return 0
	}
	return sort.Search(len(c.splits), func(i int) bool { return bytes.Compare(c.splits[i], key) > 0 })
}

// anchored reports whether first, the first cached key at or after start
// (pred being the last one before it), is provably also the first database
// key at or after start.
func anchored(pred, first *node, start []byte) bool {
	return pred.contigNext || bytes.Equal(first.key, start) ||
		(len(first.lowerBound) > 0 && bytes.Compare(first.lowerBound, start) <= 0)
}

// Get returns the cached value for key.
func (c *Cache) Get(key []byte) ([]byte, bool) {
	s := c.shards[c.shardIndex(key)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := s.list.seek(key).next0; n != nil && bytes.Equal(n.key, key) {
		s.pol.OnAccess(&n.Handle)
		s.getHits++
		return n.value, true
	}
	s.pol.OnMiss(key)
	s.getMisses++
	return nil, false
}

// Scan returns the first n pairs at or after start if the cache can prove
// it holds the full contiguous prefix; ok=false otherwise. The pairs alias
// the cached bytes, which are never written in place.
func (c *Cache) Scan(start []byte, n int) ([]KV, bool) {
	s := c.shards[c.shardIndex(start)]
	s.mu.Lock()
	defer s.mu.Unlock()

	pred := s.list.seek(start)
	first := pred.next0
	if n <= 0 || first == nil || !anchored(pred, first, start) {
		s.scanMisses++
		s.pol.OnMiss(start)
		return nil, false
	}
	// Prove the chain reaches n entries before building (and allocating)
	// the result.
	last := first
	for i := 1; i < n; i++ {
		if !last.contigNext || last.next0 == nil {
			s.scanPartials++
			s.pol.OnMiss(start)
			return nil, false
		}
		last = last.next0
	}
	out := make([]KV, n)
	at := first
	for i := range out {
		out[i] = KV{Key: at.key, Value: at.value}
		s.pol.OnAccess(&at.Handle)
		at = at.next0
	}
	s.scanHits++
	return out, true
}

// InsertPoint admits a point-lookup result (no contiguity claims).
func (c *Cache) InsertPoint(key, value []byte) {
	s := c.shards[c.shardIndex(key)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := s.list.seek(key).next0; n != nil && bytes.Equal(n.key, key) {
		s.refreshLocked(n, value)
	} else {
		s.insertLocked(nil, key, value)
	}
	s.enforceCapacityLocked()
}

// InsertScan admits a scan result: entries are consecutive database keys
// starting at the first key >= start. Callers may pass a truncated prefix
// (partial admission); the contiguity claims remain truthful for any prefix.
func (c *Cache) InsertScan(start []byte, entries []KV) {
	c.ExtendScan(start, entries, len(entries))
}

// ExtendScan admits the part of a scan result the cache already covers —
// the anchored contiguous chain from start — plus up to grow entries beyond
// it, and reports how many entries that was. AdCache's partial admission
// extends coverage this way: each repetition of a long scan admits b·(l−a)
// entries past what is already cached (§3.4, "overlapping scans naturally
// accelerate this process"). Measuring the covered prefix and admitting past
// it share one lock visit and one descent per shard the result touches.
func (c *Cache) ExtendScan(start []byte, entries []KV, grow int) int {
	limit := min(grow, len(entries)) // grows by one per covered entry
	i := 0
	for i < limit {
		si := c.shardIndex(entries[i].Key)
		var lower, upper []byte
		if si > 0 {
			lower = c.splits[si-1]
		}
		if si < len(c.splits) {
			upper = c.splits[si]
		}
		s := c.shards[si]
		s.mu.Lock()
		i, limit = s.admitLocked(start, entries, i, limit, lower, upper)
		s.enforceCapacityLocked()
		s.mu.Unlock()
	}
	return i
}

// admitLocked admits entries[i:limit] as far as they belong to this shard,
// which holds keys in [lower, upper), and returns where it stopped and the
// limit, raised by the covered entries it walked over.
//
// It descends once, to entries[i], and then moves the finger along: the
// cache is a subset of the database and the entries are consecutive
// database keys, so no cached key can sit between two of them — the node
// after the finger is either the next entry itself, already resident, or
// lies beyond it, and the entry is spliced in right there. One key compare
// per entry (skiplist.step) tells which. contigNext is likewise truthful:
// the scan saw every database key between an entry and its successor.
func (s *shard) admitLocked(start []byte, entries []KV, i, limit int, lower, upper []byte) (int, int) {
	pred := s.list.seek(entries[i].Key)
	// Coverage is measured only by an admission that starts here and is
	// partial; it ends at the first entry that is not chained to the last.
	chain := i == 0 && limit < len(entries)
	// Nothing lives in [start, first entry); the part of that gap inside
	// this shard is the claim the shard can keep true.
	var lb []byte
	if i == 0 && bytes.Compare(start, entries[0].Key) < 0 {
		lb = start
		if bytes.Compare(lb, lower) < 0 {
			lb = lower
		}
	}
	var buf []byte // one buffer for what the new entries keep outside their nodes
	var prev *node // entries[i-1], when it is in this shard
	for ; i < limit; i++ {
		e := entries[i]
		if upper != nil && bytes.Compare(e.Key, upper) >= 0 {
			break
		}
		n := s.list.step(e.Key)
		fresh := n == nil
		if fresh {
			chain = false
			if buf == nil {
				buf = make([]byte, 0, len(lb)+admitBytes(entries[i:limit], upper))
			}
			n = s.insertLocked(&buf, e.Key, e.Value)
		} else {
			if chain {
				if (prev == nil && anchored(pred, n, start)) || (prev != nil && prev.contigNext) {
					limit = min(limit+1, len(entries))
				} else {
					chain = false
				}
			}
			s.refreshLocked(n, e.Value)
			s.list.advance(n)
		}
		if prev != nil {
			prev.contigNext = true
		} else if len(lb) > 0 && (len(n.lowerBound) == 0 || bytes.Compare(lb, n.lowerBound) < 0) {
			if fresh {
				n.lowerBound = carve(&buf, lb)
			} else {
				n.lowerBound = bytes.Clone(lb)
			}
		}
		prev = n
	}
	return i, limit
}

// admitBytes sizes the buffer for admitting entries as far as they sort
// below upper: what each keeps outside its node.
func admitBytes(entries []KV, upper []byte) int {
	need := 0
	for _, e := range entries {
		if upper != nil && bytes.Compare(e.Key, upper) >= 0 {
			break
		}
		need += entryBytes(e.Key, e.Value)
	}
	return need
}

// entryBytes is how many buffer bytes a new entry takes: its value, and its
// key when that does not fit inside the node.
func entryBytes(key, value []byte) int {
	if len(key) <= inlineKeyLen {
		return len(value)
	}
	return len(key) + len(value)
}

// carve copies b into buf's spare capacity and returns the copy, capped so
// that appending to it cannot reach a neighbour.
func carve(buf *[]byte, b []byte) []byte {
	o := len(*buf)
	*buf = append(*buf, b...)
	return (*buf)[o:len(*buf):len(*buf)]
}

// insertLocked links a new entry right after the finger, copying the key
// into the node (or, too long for that, into buf) and the value into buf —
// the batch's shared buffer, or with nil one of the entry's own.
func (s *shard) insertLocked(buf *[]byte, key, value []byte) *node {
	if buf == nil {
		own := make([]byte, 0, entryBytes(key, value))
		buf = &own
	}
	n := &node{}
	if len(key) <= inlineKeyLen {
		n.key = n.keyBuf[:copy(n.keyBuf[:], key):len(key)]
	} else {
		n.key = carve(buf, key)
	}
	n.value = carve(buf, value)
	n.Init(n)
	s.list.insert(n)
	s.used += n.size()
	s.pol.OnInsert(&n.Handle)
	return n
}

// refreshLocked records a hit on a resident entry whose value was read or
// written again. Reads are admitted only while current, so their value
// matches and nothing is copied; a new value replaces the old slice, never
// its bytes, which scan hits alias.
func (s *shard) refreshLocked(n *node, value []byte) {
	if !bytes.Equal(n.value, value) {
		s.used += int64(len(value) - len(n.value))
		n.value = bytes.Clone(value)
	}
	s.pol.OnAccess(&n.Handle)
}

// Put applies a write: update in place, or admit into a covered gap to keep
// coverage claims truthful. Writes outside covered regions are not admitted
// (result caches store query results, not write traffic).
func (c *Cache) Put(key, value []byte) {
	s := c.shards[c.shardIndex(key)]
	s.mu.Lock()
	defer s.mu.Unlock()

	// p and q are the cached neighbours of key: the last entry before it
	// and the first at or after it.
	p := s.list.seek(key)
	q := p.next0
	if q != nil && bytes.Equal(q.key, key) {
		s.refreshLocked(q, value)
		s.enforceCapacityLocked()
		return
	}

	// A new DB key inside a covered gap is admitted so the claims around it
	// stay truthful. The gap can be covered from below — p's contiguity
	// claim over (p.key, q.key) — and from above — q's lower bound over
	// [lb, q.key) — and both must learn of the key: it joins p's chain, and
	// takes over the part of q's bound that still holds, [lb, key).
	chained := p.contigNext && q != nil
	bounded := q != nil && len(q.lowerBound) > 0 && bytes.Compare(q.lowerBound, key) <= 0
	if chained || bounded {
		n := s.insertLocked(nil, key, value)
		n.contigNext = true
		if bounded {
			n.lowerBound, q.lowerBound = q.lowerBound, nil
		}
		s.enforceCapacityLocked()
	}
}

// Delete applies a database delete: the key leaves the cache, and because it
// also left the database, neighbouring coverage claims merge.
func (c *Cache) Delete(key []byte) {
	s := c.shards[c.shardIndex(key)]
	s.mu.Lock()
	defer s.mu.Unlock()

	p := s.list.seek(key)
	n := p.next0
	if n == nil || !bytes.Equal(n.key, key) {
		return // covered-gap keys cannot exist in the DB; nothing to fix
	}
	next := n.next0
	s.list.unlink(n)
	s.used -= n.size()
	s.pol.OnRemove(&n.Handle)

	// Merge coverage across the removed key. The deleted key no longer
	// exists in the DB, so emptiness claims on both sides compose.
	p.contigNext = p.contigNext && n.contigNext && next != nil
	if next != nil && n.contigNext && len(n.lowerBound) > 0 {
		if len(next.lowerBound) == 0 || bytes.Compare(n.lowerBound, next.lowerBound) < 0 {
			next.lowerBound = n.lowerBound
		}
	}
}

// enforceCapacityLocked evicts policy-chosen victims until the shard fits
// its budget. Unlike Delete, a victim's key still exists in the database, so
// the claim through it breaks. Victims are unlinked in runs: a batch admitted
// in key order ages out in key order, and after one victim is unlinked the
// finger stands right before its successor, so only the first victim of a
// run costs a descent.
func (s *shard) enforceCapacityLocked() {
	fingered := false
	for s.used > s.capacity {
		h := s.pol.Evict()
		if h == nil {
			return
		}
		victim := h.Owner().(*node)
		if !fingered || s.list.finger[0].next0 != victim {
			s.list.seek(victim.key)
			fingered = true
		}
		s.list.finger[0].contigNext = false
		s.list.unlink(victim)
		s.used -= victim.size()
		s.evictions++
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

// Stats returns the cache counters aggregated over shards.
func (c *Cache) Stats() Stats { return Sum(c.ShardStats()) }

// Sum aggregates per-shard snapshots, as returned by ShardStats.
func Sum(shards []Stats) Stats {
	var st Stats
	for _, s := range shards {
		st.GetHits += s.GetHits
		st.GetMisses += s.GetMisses
		st.ScanHits += s.ScanHits
		st.ScanMisses += s.ScanMisses
		st.ScanPartials += s.ScanPartials
		st.Evictions += s.Evictions
		st.Used += s.Used
		st.Capacity += s.Capacity
		st.Entries += s.Entries
	}
	return st
}

// ShardStats returns one counter snapshot per shard, in shard order.
// Shards map to key ranges (§4.4), so a hot range shows up as one shard's
// hit and eviction counters running away from its siblings'.
func (c *Cache) ShardStats() []Stats {
	out := make([]Stats, len(c.shards))
	c.statLocks.Add(int64(len(c.shards)))
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

// StatLockVisits reports how many shard locks ShardStats (and so Stats) has
// taken — a test hook for the scrape-cost pin.
func (c *Cache) StatLockVisits() int64 { return c.statLocks.Load() }

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
