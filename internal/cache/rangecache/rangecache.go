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
// Cost: every public operation searches its shard's ordered index at most
// once, a scan admission once for the whole batch, and an eviction not at
// all (see tree). Entries are found by key bytes, tracked by the eviction
// policy through a handle embedded in the entry, and admitted with two
// allocations per batch (see batch).
//
// Concurrency (§4.4 of the paper): the key space is range-partitioned into
// shards, each with its own lock and an equal share of the budget. The
// shard count follows from the budget given to New; the boundaries follow
// from what the cache holds. Until the cache first fills it is one shard;
// then it splits at byte quantiles of its entries, and it splits again only
// when its occupancy turns lopsided: a shard evicts entries while the other
// shards hold a quarter of the budget in entries older than those by half
// a turnover of the cache. A scan chain continues across a shard edge:
// claims never name an entry of another shard, only the edge itself.
package rangecache

import (
	"bytes"
	"sync"
	"sync/atomic"

	"adcache/internal/cache/policy"
	"adcache/internal/keys"
)

// KV is one key-value pair of a scan result.
type KV = keys.KV

// Options configures a Cache.
type Options struct {
	// Capacity is the byte budget across all shards. It also fixes the
	// shard count: one per shardBytes of it, a power of two, at most
	// maxShards.
	Capacity int64
	// Policy names the eviction policy: "lru" (default), "lecar",
	// "cacheus".
	Policy string
}

const (
	// shardBytes is the budget that earns a cache one more lock: a shard
	// much smaller than this holds too few entries for its LRU order to
	// stand in for the cache's.
	shardBytes = 512 << 10
	maxShards  = 16
)

// shardCount is how many shards a cache with the given budget runs.
func shardCount(capacity int64) int {
	n := 1
	for n < maxShards && int64(2*n)*shardBytes <= capacity {
		n *= 2
	}
	return n
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
	// layout holds the current boundaries. It is replaced only while every
	// shard lock is held, so whoever holds one shard lock sees it fixed.
	layout atomic.Pointer[layout]
	policy string
	// hint estimates the entry count, for policies that size ghost lists.
	hint int
	// capacity is the byte budget, kept here so the admission path can
	// read it without visiting every shard lock.
	capacity atomic.Int64
	// epoch is the cache's age clock: it ticks each time a shard has
	// evicted its budget's worth of bytes. Entries remember the epoch they
	// were last touched in. Written only under every shard lock.
	epoch uint32
	// splits counts boundary derivations; guarded by every shard lock.
	splits int
	// statLocks counts shard locks taken by ShardStats; tests pin the
	// one-visit-per-scrape rule with it.
	statLocks atomic.Int64
}

// layout is one assignment of key ranges to shards: splits[i] is the first
// key of shard i+1, and shards past len(splits) are idle.
type layout struct {
	splits [][]byte
}

// live is the number of shards in use.
func (l *layout) live() int { return len(l.splits) + 1 }

// index returns the shard owning key: the number of split keys at or below
// it.
func (l *layout) index(key []byte) int {
	lo, hi := 0, len(l.splits)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(l.splits[mid], key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// lower and upper are shard i's edges; nil means unbounded.
func (l *layout) lower(i int) []byte {
	if i == 0 {
		return nil
	}
	return l.splits[i-1]
}

func (l *layout) upper(i int) []byte {
	if i == len(l.splits) {
		return nil
	}
	return l.splits[i]
}

type shard struct {
	mu       sync.Mutex
	c        *Cache
	tree     tree
	pol      policy.Policy
	capacity int64
	used     int64
	// ages[e%ageWindow] is the bytes last touched in epoch e, for the
	// ageWindow epochs up to the current one; older holds the rest.
	ages  [ageWindow]int64
	older int64
	// churn is the bytes evicted since the shard last asked for a
	// boundary check; victim is the epoch of the latest entry evicted.
	churn  int64
	victim uint32

	getHits, getMisses   int64
	scanHits, scanMisses int64
	scanPartials         int64
	evictions            int64
}

// entry is one cached key-value pair: the cache entry with its coverage
// metadata and the policy's handle in a single object, cut with the other
// entries of its batch from one slab; its key and value sit in the batch's
// buffer.
//
// contigNext claims that the next cache entry (in key order, same shard) is
// this key's immediate successor in the database: a scan passing through
// this entry may continue to the next without missing keys. On a shard's
// last entry it claims the database holds no keys between the entry and
// the shard's upper edge, and never anything on the last shard's. lowerBound,
// when non-empty, claims the database holds no keys in [lowerBound, key) —
// it extends coverage below the entry so scans starting in that gap can
// anchor here.
type entry struct {
	key, value []byte
	lowerBound []byte // empty means none
	leaf       *leaf  // the index leaf holding the entry
	epoch      uint32 // the cache's epoch when the entry was last touched
	contigNext bool
	policy.Handle
}

// PolicyKey implements policy.Keyed.
func (n *entry) PolicyKey() []byte { return n.key }

func (n *entry) size() int64 { return int64(len(n.key)+len(n.value)) + entryOverhead }

// entryOverhead approximates per-entry bookkeeping bytes (the entry, its
// policy handle, its index slot), charged against the cache budget.
const entryOverhead = 64

// ageWindow is how many epochs a shard's age histogram resolves: enough
// for a 16-shard cache's entries to age through two turnovers.
const ageWindow = 2 * maxShards

// New returns a Cache configured by opts.
func New(opts Options) *Cache { return newCache(opts, shardCount(opts.Capacity)) }

// newCache returns a Cache that splits into shards shards once it fills.
func newCache(opts Options, shards int) *Cache {
	c := &Cache{policy: opts.Policy, hint: max(int(opts.Capacity/128), 16)}
	c.layout.Store(&layout{})
	for i := 0; i < shards; i++ {
		c.shards = append(c.shards, &shard{c: c, tree: newTree()})
	}
	c.shards[0].pol = policy.New(opts.Policy, c.hint+1)
	c.setCapacityLocked(opts.Capacity)
	return c
}

// lock locks and returns the shard owning key, with the layout that makes
// it the owner.
func (c *Cache) lock(key []byte) (*layout, *shard, int) {
	for {
		l := c.layout.Load()
		i := l.index(key)
		s := c.shards[i]
		s.mu.Lock()
		if c.layout.Load() == l {
			return l, s, i
		}
		s.mu.Unlock() // split while we waited
	}
}

func (c *Cache) lockAll() {
	for _, s := range c.shards {
		s.mu.Lock()
	}
}

func (c *Cache) unlockAll() {
	for _, s := range c.shards {
		s.mu.Unlock()
	}
}

// anchored reports whether first, the first cached key at or after start
// (pred being the last one before it, if any), is provably also the first
// database key at or after start.
func anchored(pred, first *entry, start []byte) bool {
	return (pred != nil && pred.contigNext) || bytes.Equal(first.key, start) ||
		(len(first.lowerBound) > 0 && bytes.Compare(first.lowerBound, start) <= 0)
}

// Get returns the cached value for key.
func (c *Cache) Get(key []byte) ([]byte, bool) {
	_, s, _ := c.lock(key)
	defer s.mu.Unlock()
	if _, e := s.tree.seek(key); e != nil {
		s.touch(e)
		s.getHits++
		return e.value, true
	}
	s.pol.OnMiss(key)
	s.getMisses++
	return nil, false
}

// Scan returns the first n pairs at or after start if the cache can prove
// it holds the full contiguous prefix; ok=false otherwise. The pairs alias
// the cached bytes, which are never written in place.
//
// The chain may run on past the start shard's upper edge: its last entry
// then claims nothing lives between it and the edge, and the next shard's
// first entry that nothing lives between the edge and it. The scan takes
// each shard's lock on the way, in key order, and holds them all until it
// returns.
func (c *Cache) Scan(start []byte, n int) ([]KV, bool) {
	l, s, si := c.lock(start)
	last := si // the chain's shard so far; si..last are locked
	defer func() {
		for j := si; j <= last; j++ {
			c.shards[j].mu.Unlock()
		}
	}()

	cur, _ := s.tree.seek(start)
	pred, first := cur.pred(), cur.entry()
	switch {
	case n <= 0:
		first = nil
	case first == nil:
		// start lies past the shard's entries; pred may claim its edge.
		if pred != nil && pred.contigNext {
			first = c.cross(l, &cur, &last)
		}
	case !anchored(pred, first, start):
		first = nil
	}
	if first == nil {
		s.scanMisses++
		s.pol.OnMiss(start)
		return nil, false
	}
	// Prove the chain reaches n entries before building (and allocating)
	// the result.
	at, fi := cur, last
	for e, i := first, 1; i < n; i++ {
		if e.contigNext {
			e = c.follow(l, &at, &last)
		} else {
			e = nil
		}
		if e == nil {
			s.scanPartials++
			s.pol.OnMiss(start)
			return nil, false
		}
	}
	out := make([]KV, n)
	at, ai := cur, fi
	for i := range out {
		e := at.entry()
		out[i] = KV{Key: e.key, Value: e.value}
		c.shards[ai].touch(e)
		if at.advance(); i+1 < n && at.entry() == nil {
			ai++
			at = c.shards[ai].tree.begin()
		}
	}
	s.scanHits++
	return out, true
}

// follow moves cur, in shard *j, past its entry, which claims contiguity to
// its successor, and returns the entry the chain continues to: the next
// entry of the shard, or — past the shard's last entry, whose claim reaches
// the upper edge — the next shard's first (see cross).
func (c *Cache) follow(l *layout, cur *cursor, j *int) *entry {
	cur.advance()
	if e := cur.entry(); e != nil {
		return e
	}
	return c.cross(l, cur, j)
}

// cross carries a chain that reached shard *j's upper edge over it: it
// locks the next shard, advances *j, moves cur to the shard's start and
// returns its first entry if that one's claims reach down to the edge, nil
// if the chain breaks there.
func (c *Cache) cross(l *layout, cur *cursor, j *int) *entry {
	edge := l.upper(*j)
	if edge == nil {
		return nil
	}
	*j++
	t := c.shards[*j]
	t.mu.Lock()
	*cur = t.tree.begin()
	if f := cur.entry(); f != nil && anchored(nil, f, edge) {
		return f
	}
	return nil
}

// InsertPoint admits a point-lookup result (no contiguity claims).
func (c *Cache) InsertPoint(key, value []byte) {
	_, s, si := c.lock(key)
	if cur, e := s.tree.seek(key); e != nil {
		s.refreshLocked(e, value)
	} else {
		b := newBatch(1, len(key)+len(value))
		s.insertLocked(&b, &cur, key, value)
	}
	split := s.enforceCapacityLocked()
	s.mu.Unlock()
	if split {
		c.check(si)
	}
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
// it share one lock visit and one search per shard the result touches.
func (c *Cache) ExtendScan(start []byte, entries []KV, grow int) int {
	limit := min(grow, len(entries)) // grows by one per covered entry
	// Coverage is measured only by a partial admission; it ends at the
	// first entry that is not chained to the last.
	chain := limit < len(entries)
	i := 0
	for i < limit {
		l, s, si := c.lock(entries[i].Key)
		i, limit, chain = s.admitLocked(start, entries, i, limit, chain, l.lower(si), l.upper(si))
		split := s.enforceCapacityLocked()
		s.mu.Unlock()
		if split {
			c.check(si)
		}
	}
	return i
}

// admitLocked admits entries[i:limit] as far as they belong to this shard,
// which holds keys in [lower, upper), and returns where it stopped, the
// limit, raised by the covered entries it walked over, and whether the
// covered chain is still unbroken.
//
// It searches once, for entries[i], and then moves the cursor along: the
// cache is a subset of the database and the entries are consecutive
// database keys, so no cached key can sit between two of them — the entry
// after the cursor is either the next one itself, already resident, or
// lies beyond it, and the new one is put in right there. One key compare
// per entry (tree.step) tells which. contigNext is likewise truthful: the
// scan saw every database key between an entry and its successor, and
// between the last entry below upper and upper itself.
func (s *shard) admitLocked(start []byte, entries []KV, i, limit int, chain bool, lower, upper []byte) (int, int, bool) {
	cur, _ := s.tree.seek(entries[i].Key)
	pred := cur.pred()
	// Nothing lives in [from, first entry here), from being start or, for
	// a result that comes from the shard below, this shard's lower edge;
	// the part of that gap inside this shard is the claim it can keep true.
	from, fromOK := start, true
	if i > 0 {
		// Unless a split moved the edge since the last visit.
		from = lower
		fromOK = lower != nil && bytes.Compare(entries[i-1].Key, lower) < 0
		chain = chain && fromOK
	}
	var lb []byte
	if fromOK && bytes.Compare(from, entries[i].Key) < 0 {
		lb = from
		if bytes.Compare(lb, lower) < 0 {
			lb = lower
		}
	}
	var b batch     // the new entries' storage
	var prev *entry // entries[i-1], when it is in this shard
	for ; i < limit; i++ {
		e := entries[i]
		if upper != nil && bytes.Compare(e.Key, upper) >= 0 {
			break
		}
		n := s.tree.step(&cur, e.Key)
		fresh := n == nil
		if fresh {
			chain = false
			if b.ents == nil {
				count, size := admitSize(entries[i:limit], upper)
				b = newBatch(count, len(lb)+size)
			}
			n = s.insertLocked(&b, &cur, e.Key, e.Value)
		} else {
			if chain {
				if (prev == nil && fromOK && anchored(pred, n, from)) || (prev != nil && prev.contigNext) {
					limit = min(limit+1, len(entries))
				} else {
					chain = false
				}
			}
			s.refreshLocked(n, e.Value)
			cur.advance()
		}
		if prev != nil {
			prev.contigNext = true
		} else if len(lb) > 0 && (len(n.lowerBound) == 0 || bytes.Compare(lb, n.lowerBound) < 0) {
			if fresh {
				n.lowerBound = carve(&b.buf, lb)
			} else {
				n.lowerBound = bytes.Clone(lb)
			}
		}
		prev = n
	}
	// The result goes on past the upper edge: nothing lives between the
	// last entry here and the edge.
	if prev != nil && upper != nil && i < len(entries) && bytes.Compare(entries[i].Key, upper) >= 0 {
		chain = chain && prev.contigNext
		prev.contigNext = true
	}
	return i, limit, chain
}

// admitSize counts the entries an admission may add, as far as they sort
// below upper, and the bytes of their keys and values.
func admitSize(entries []KV, upper []byte) (count, size int) {
	for _, e := range entries {
		if upper != nil && bytes.Compare(e.Key, upper) >= 0 {
			break
		}
		count++
		size += len(e.Key) + len(e.Value)
	}
	return count, size
}

// batch is the storage of entries admitted together: one slab for the
// entries and one buffer for the bytes they keep (keys, values and lower
// bounds), so that admitting a scan result costs two allocations, not two
// per entry. An entry and its bytes live as long as the last entry of the
// batch does.
type batch struct {
	buf  []byte
	ents []entry
}

// newBatch returns a batch with room for count entries and size bytes.
func newBatch(count, size int) batch {
	return batch{buf: make([]byte, 0, size), ents: make([]entry, 0, count)}
}

// entry returns a new entry holding copies of key and value.
func (b *batch) entry(key, value []byte) *entry {
	b.ents = append(b.ents, entry{})
	e := &b.ents[len(b.ents)-1]
	e.key, e.value = carve(&b.buf, key), carve(&b.buf, value)
	return e
}

// carve copies b into buf's spare capacity and returns the copy, capped so
// that appending to it cannot reach a neighbour.
func carve(buf *[]byte, b []byte) []byte {
	o := len(*buf)
	*buf = append(*buf, b...)
	return (*buf)[o:len(*buf):len(*buf)]
}

// insertLocked puts a new entry of b at cur and moves cur past it.
func (s *shard) insertLocked(b *batch, cur *cursor, key, value []byte) *entry {
	n := b.entry(key, value)
	n.epoch = s.c.epoch
	n.Init(n)
	*cur = s.tree.insert(*cur, n)
	s.used += n.size()
	s.ages[n.epoch%ageWindow] += n.size()
	s.pol.OnInsert(&n.Handle)
	return n
}

// touch records a hit on a resident entry.
func (s *shard) touch(n *entry) {
	if n.epoch != s.c.epoch {
		s.forget(n)
		n.epoch = s.c.epoch
		s.ages[n.epoch%ageWindow] += n.size()
	}
	s.pol.OnAccess(&n.Handle)
}

// forget takes n, about to be touched or to leave, out of its age class.
func (s *shard) forget(n *entry) {
	if s.c.epoch-n.epoch < ageWindow {
		s.ages[n.epoch%ageWindow] -= n.size()
	} else {
		s.older -= n.size()
	}
}

// refreshLocked records a hit on a resident entry whose value was read or
// written again. Reads are admitted only while current, so their value
// matches and nothing is copied; a new value replaces the old slices, never
// their bytes, which scan hits alias. The key moves along into the new
// buffer, so that it does not keep the old value alive.
func (s *shard) refreshLocked(n *entry, value []byte) {
	s.touch(n)
	if !bytes.Equal(n.value, value) {
		grow := int64(len(value) - len(n.value))
		s.used += grow
		s.ages[n.epoch%ageWindow] += grow
		buf := make([]byte, 0, len(n.key)+len(value))
		n.key, n.value = carve(&buf, n.key), carve(&buf, value)
	}
}

// Put applies a write: update in place, or admit into a covered gap to keep
// coverage claims truthful. Writes outside covered regions are not admitted
// (result caches store query results, not write traffic).
func (c *Cache) Put(key, value []byte) {
	l, s, si := c.lock(key)

	// p and q are the cached neighbours of key in its shard: the last entry
	// before it and the first at or after it.
	cur, hit := s.tree.seek(key)
	p, q := cur.pred(), cur.entry()
	if hit != nil {
		s.refreshLocked(q, value)
	} else {
		// A new DB key inside a covered gap is admitted so the claims
		// around it stay truthful. The gap can be covered from below — p's
		// contiguity claim over (p.key, q.key), or up to the shard's upper
		// edge when p is its last entry — and from above — q's lower bound
		// over [lb, q.key) — and both must learn of the key: it joins p's
		// chain, and takes over the part of q's bound that still holds,
		// [lb, key).
		chained := p != nil && p.contigNext && (q != nil || l.upper(si) != nil)
		bounded := q != nil && len(q.lowerBound) > 0 && bytes.Compare(q.lowerBound, key) <= 0
		if !chained && !bounded {
			s.mu.Unlock()
			return
		}
		b := newBatch(1, len(key)+len(value))
		n := s.insertLocked(&b, &cur, key, value)
		n.contigNext = true
		if bounded {
			n.lowerBound, q.lowerBound = q.lowerBound, nil
		}
	}
	split := s.enforceCapacityLocked()
	s.mu.Unlock()
	if split {
		c.check(si)
	}
}

// Delete applies a database delete: the key leaves the cache, and because it
// also left the database, neighbouring coverage claims merge.
func (c *Cache) Delete(key []byte) {
	l, s, si := c.lock(key)
	defer s.mu.Unlock()

	cur, n := s.tree.seek(key)
	if n == nil {
		return // covered-gap keys cannot exist in the DB; nothing to fix
	}
	cur.advance()
	next := cur.entry()
	p := s.removeLocked(n)
	s.pol.OnRemove(&n.Handle)

	// Merge coverage across the removed key. The deleted key no longer
	// exists in the DB, so emptiness claims on both sides compose. A
	// shard's first entry sitting right on its lower edge bounds the gap
	// from the edge.
	upper := l.upper(si)
	if p != nil {
		p.contigNext = p.contigNext && n.contigNext && (next != nil || upper != nil)
	}
	bound := n.lowerBound
	if lower := l.lower(si); p == nil && len(bound) == 0 && bytes.Equal(n.key, lower) {
		bound = lower
	}
	if next != nil && n.contigNext && len(bound) > 0 {
		if len(next.lowerBound) == 0 || bytes.Compare(bound, next.lowerBound) < 0 {
			next.lowerBound = bound
		}
	}
}

// removeLocked takes n out of the index, stops charging for it and returns
// the entry before it in the shard, or nil.
func (s *shard) removeLocked(n *entry) *entry {
	s.forget(n)
	s.used -= n.size()
	return s.tree.remove(n)
}

// enforceCapacityLocked evicts policy-chosen victims until the shard fits
// its budget. Unlike Delete, a victim's key still exists in the database, so
// the claim through it breaks: its predecessor, found beside it in the
// index, loses its contiguity claim. No victim costs a search.
//
// It reports whether the boundaries need a look (see Cache.check): the
// cache has filled for the first time, or this shard has evicted its
// budget's worth since it last asked.
func (s *shard) enforceCapacityLocked() bool {
	evicted := false
	for s.used > s.capacity {
		h := s.pol.Evict()
		if h == nil {
			break
		}
		victim := h.Owner().(*entry)
		if p := s.removeLocked(victim); p != nil {
			p.contigNext = false
		}
		s.churn += victim.size()
		s.victim = victim.epoch
		s.evictions++
		evicted = true
	}
	c := s.c
	switch {
	case !evicted || len(c.shards) == 1:
		return false
	case len(c.layout.Load().splits) == 0:
		return s.tree.count >= 2*len(c.shards)
	case s.churn < s.capacity:
		return false
	}
	s.churn = 0
	return true
}

// setCapacityLocked shares capacity out among the live shards, the
// remainder a byte each to the first ones. The caller holds every shard
// lock (or owns the cache exclusively).
func (c *Cache) setCapacityLocked(capacity int64) {
	live := int64(c.layout.Load().live())
	per, rem := capacity/live, capacity%live
	for j, s := range c.shards {
		s.capacity = 0
		if int64(j) < live {
			s.capacity = per
			if int64(j) < rem {
				s.capacity++
			}
		}
	}
	c.capacity.Store(capacity)
}

// Resize changes the byte budget, evicting as needed. A shrink never
// splits the cache.
func (c *Cache) Resize(capacity int64) {
	c.lockAll()
	defer c.unlockAll()
	c.setCapacityLocked(capacity)
	for _, s := range c.shards {
		s.enforceCapacityLocked()
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

// ShardStats returns one counter snapshot per live shard, in key order —
// one before the cache first fills. Shards map to key ranges (§4.4), so a
// hot range shows up as one shard's hit and eviction counters running away
// from its siblings'.
func (c *Cache) ShardStats() []Stats {
	live := c.layout.Load().live()
	out := make([]Stats, live)
	c.statLocks.Add(int64(live))
	for i, s := range c.shards[:live] {
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
			Entries:      s.tree.count,
		}
		s.mu.Unlock()
	}
	return out
}

// StatLockVisits reports how many shard locks ShardStats (and so Stats) has
// taken — a test hook for the scrape-cost pin.
func (c *Cache) StatLockVisits() int64 { return c.statLocks.Load() }

// Capacity reports the configured byte budget.
func (c *Cache) Capacity() int64 { return c.capacity.Load() }
