package rangecache

import (
	"bytes"

	"adcache/internal/cache/policy"
)

// check runs when shard i asks for it, under every shard lock. A cache
// that has never split splits now, at byte quantiles of everything it
// holds. Otherwise the epoch ticks, and the cache splits again if it has
// become lopsided: shard i evicts entries while the other shards hold a
// quarter of the budget in entries older by half a turnover than those —
// entries a cache with one LRU list would have evicted first. The new
// boundaries then share out the entries no older than that.
func (c *Cache) check(i int) {
	c.lockAll()
	defer c.unlockAll()
	if len(c.layout.Load().splits) == 0 {
		if c.shards[0].tree.count >= 2*len(c.shards) {
			c.splitLocked(0, false)
		}
		return
	}
	c.epoch++
	for _, s := range c.shards {
		s.older += s.ages[c.epoch%ageWindow]
		s.ages[c.epoch%ageWindow] = 0
	}
	// An epoch is about 1/n of a turnover of the whole cache.
	margin := uint32(max(len(c.shards)/2, 1))
	s := c.shards[i]
	if c.epoch-s.victim+margin >= ageWindow {
		return // it evicts entries older than the histograms resolve
	}
	cut := s.victim - margin
	var old int64
	for j, t := range c.shards {
		if j == i {
			continue
		}
		old += t.older
		for e := c.epoch - ageWindow + 1; e != cut; e++ {
			old += t.ages[e%ageWindow]
		}
	}
	if old >= c.capacity.Load()/4 {
		c.splitLocked(cut, true)
	}
}

// splitLocked moves the boundaries so that each shard holds an equal share
// of the bytes of entries touched in epoch cut or later (with byAge; of
// all entries without), and rebuilds every shard around its new range. It
// costs O(resident entries): each shard's index is bulk-loaded, and each
// shard's policy is refilled in the old policies' eviction order — an LRU
// keeps every entry's recency relative to the entries it shared a shard
// with. LeCaR's and Cacheus' frequencies and ghosts are not carried over.
// The caller holds every shard lock.
func (c *Cache) splitLocked(cut uint32, byAge bool) {
	old := c.layout.Load()
	shards := len(c.shards)
	resident := 0
	for j := 0; j < old.live(); j++ {
		resident += c.shards[j].tree.count
	}
	if resident < shards {
		return
	}
	recent := func(n *entry) bool { return !byAge || c.epoch-n.epoch <= c.epoch-cut }

	// Every entry in key order. A claim that reached an old edge becomes
	// one on the entry's successor when the next shard's first entry
	// reaches down to that edge; otherwise it is dropped.
	all := make([]*entry, 0, resident)
	var total int64
	for j := 0; j < old.live(); j++ {
		s := c.shards[j]
		if f := s.tree.begin().entry(); len(all) > 0 && all[len(all)-1].contigNext {
			all[len(all)-1].contigNext = f != nil && anchored(nil, f, old.lower(j))
		}
		all = s.tree.appendTo(all)
	}
	for _, n := range all {
		if recent(n) {
			total += n.size()
		}
	}
	all[len(all)-1].contigNext = false // nothing is known past the last entry
	if total == 0 {
		byAge = false
		for _, n := range all {
			total += n.size()
		}
	}

	// New boundaries at byte quantiles: each split key is the key of the
	// first entry at or past its share of the weighed bytes.
	at := make([]int, 0, shards-1) // index in all of each new shard's first entry
	var cum int64
	for idx, n := range all {
		if len(at) == shards-1 {
			break
		}
		if idx > 0 && cum*int64(shards) >= int64(len(at)+1)*total {
			at = append(at, idx)
		}
		if recent(n) {
			cum += n.size()
		}
	}
	// Too few entries past the last quantile: shift the tail down so every
	// shard starts at an entry of its own.
	for len(at) < shards-1 {
		at = append(at, len(all))
	}
	for j := shards - 2; j >= 0; j-- {
		at[j] = min(at[j], len(all)-(shards-1-j))
		if j > 0 && at[j-1] >= at[j] {
			at[j-1] = at[j] - 1
		}
	}
	next := &layout{splits: make([][]byte, shards-1)}
	for j, idx := range at {
		next.splits[j] = bytes.Clone(all[idx].key)
		// The entry sits right on its shard's lower edge; a bound below it
		// would claim part of another shard.
		all[idx].lowerBound = nil
	}

	// Drain the old policies in eviction order before any entry moves.
	orders := make([][]*entry, old.live())
	for j := range orders {
		pol := c.shards[j].pol
		orders[j] = make([]*entry, 0, pol.Len())
		for h := pol.Evict(); h != nil; h = pol.Evict() {
			orders[j] = append(orders[j], h.Owner().(*entry))
		}
	}

	lo := 0
	for j, s := range c.shards {
		hi := len(all)
		if j < len(at) {
			hi = at[j]
		}
		s.tree.build(all[lo:hi])
		s.pol = policy.New(c.policy, c.hint/shards+1)
		s.used, s.ages, s.older, s.churn = 0, [ageWindow]int64{}, 0, 0
		for _, n := range all[lo:hi] {
			s.used += n.size()
			if c.epoch-n.epoch < ageWindow {
				s.ages[n.epoch%ageWindow] += n.size()
			} else {
				s.older += n.size()
			}
		}
		lo = hi
	}
	c.layout.Store(next)
	c.splits++

	// Refill the policies, oldest first. Entries from different old shards
	// have no common clock; they interleave by their rank within their
	// own old shard.
	pos := make([]int, len(orders))
	for left := resident; left > 0; left-- {
		pick := -1
		for j, order := range orders {
			if pos[j] == len(order) {
				continue
			}
			// rank (pos+½)/len, compared without division
			if pick < 0 || int64(2*pos[j]+1)*int64(len(orders[pick])) < int64(2*pos[pick]+1)*int64(len(order)) {
				pick = j
			}
		}
		n := orders[pick][pos[pick]]
		pos[pick]++
		c.shards[next.index(n.key)].pol.OnInsert(&n.Handle)
	}

	c.setCapacityLocked(c.capacity.Load())
	for _, s := range c.shards {
		s.enforceCapacityLocked()
		s.churn = 0
	}
}
