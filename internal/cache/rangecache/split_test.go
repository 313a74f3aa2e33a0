package rangecache

import (
	"bytes"
	"testing"
)

// TestFirstFillSplits checks that a cache runs as one shard until it
// fills and then splits into its full shard count, each shard holding a
// near-equal share of the entries, with every claim and hit intact.
func TestFirstFillSplits(t *testing.T) {
	const entry = 9 + 9 + entryOverhead
	c := newCache(Options{Capacity: 400 * entry}, 4)
	c.InsertScan(k(0), kvs(0, 400))
	if live := len(c.ShardStats()); live != 1 || c.splits != 0 {
		t.Fatalf("a cache that has not filled runs %d shards after %d splits", live, c.splits)
	}
	c.InsertScan(k(400), kvs(400, 40))
	shards := c.ShardStats()
	if len(shards) != 4 || c.splits != 1 {
		t.Fatalf("after the first fill: %d live shards, %d splits; want 4, 1", len(shards), c.splits)
	}
	for i, st := range shards {
		if st.Entries < 90 || st.Entries > 110 {
			t.Errorf("shard %d holds %d entries, want about 100", i, st.Entries)
		}
	}
	// What the fill evicted was the oldest batch's head; the rest still
	// chains across every edge.
	if got, ok := c.Scan(k(40), 360); !ok || !bytes.Equal(got[359].Key, k(399)) {
		t.Fatalf("scan across the new edges missed (ok=%v)", ok)
	}
}

// TestSplitKeepsLRUOrder checks that a split hands each new shard's policy
// its entries in the order the old policy would have evicted them.
func TestSplitKeepsLRUOrder(t *testing.T) {
	c := newCache(Options{Capacity: 1 << 20}, 4)
	// Recency, oldest first: a fixed shuffle of keys 0..199.
	order := make([]int, 200)
	for i := range order {
		order[i] = (i * 73) % 200
	}
	for _, i := range order {
		c.InsertPoint(k(i), v(i))
	}
	forceSplit(c)
	rank := make(map[string]int, len(order))
	for r, i := range order {
		rank[string(k(i))] = r
	}
	for si, s := range c.shards {
		last := -1
		for h := s.pol.Evict(); h != nil; h = s.pol.Evict() {
			r := rank[string(h.Owner().PolicyKey())]
			if r < last {
				t.Fatalf("shard %d evicts %q (rank %d) after rank %d", si, h.Owner().PolicyKey(), r, last)
			}
			last = r
		}
	}
}

// TestStationaryMixSplitsBounded runs embed_read's mix against the 6 MB
// cache the benchmark gives AdCache: the cache splits when it first fills
// and at most a few times after, none in the second half of the run, and
// its hit ratio stays within 0.03 of a one-shard cache's.
func TestStationaryMixSplitsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("300k operations per cache")
	}
	table := mixTable()
	ops := mixOps(embedRead, 7, 300_000)
	one := newCache(Options{Capacity: 6 << 20}, 1)
	sharded := New(Options{Capacity: 6 << 20})
	if len(sharded.shards) != 8 {
		t.Fatalf("6 MB runs %d shards, want 8", len(sharded.shards))
	}
	half := len(ops) / 2
	hOne := hitRatio(one, table, ops[:half])
	hSharded := hitRatio(sharded, table, ops[:half])
	early := sharded.splits
	hOne = (hOne + hitRatio(one, table, ops[half:])) / 2
	hSharded = (hSharded + hitRatio(sharded, table, ops[half:])) / 2
	t.Logf("hit ratio: one shard %.4f, 8 shards %.4f; splits %d then %d", hOne, hSharded, early, sharded.splits)
	if early < 1 || early > 4 || sharded.splits != early {
		t.Errorf("splits: %d in the first half, %d in all; want 1..4, none later", early, sharded.splits)
	}
	if hSharded < hOne-0.03 {
		t.Errorf("8 shards hit %.4f, one shard %.4f", hSharded, hOne)
	}
}

// TestMovingHotRangeHitRatio moves a hot range, half the cache in size,
// across the key space: each phase's gets and short scans fall uniformly in
// a window that the boundaries of the phase before do not fit. The
// sharded cache has to move its boundaries after the window to stay within
// 0.03 of a one-shard cache's hit ratio.
func TestMovingHotRangeHitRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("six phases of 60k operations per cache")
	}
	const capacity = 4 << 20
	window := capacity / 2 / (24 + 256 + entryOverhead)
	table := mixTable()
	var ops []mixOp
	for phase, at := 0, 0; phase < 6; phase, at = phase+1, (at+37_000)%(mixKeys-window) {
		for i := 0; i < 60_000; i++ {
			op := mixOp{idx: at + (i*7919+phase)%window}
			if i%2 == 1 {
				op.n = 16
			}
			ops = append(ops, op)
		}
	}
	one := newCache(Options{Capacity: capacity}, 1)
	sharded := New(Options{Capacity: capacity})
	hOne, hSharded := hitRatio(one, table, ops), hitRatio(sharded, table, ops)
	t.Logf("hit ratio: one shard %.4f, %d shards %.4f after %d splits", hOne, len(sharded.shards), hSharded, sharded.splits)
	if hSharded < hOne-0.03 {
		t.Errorf("%d shards hit %.4f, one shard %.4f", len(sharded.shards), hSharded, hOne)
	}
}
