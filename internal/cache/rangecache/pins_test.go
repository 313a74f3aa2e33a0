package rangecache

import (
	"runtime"
	"testing"
)

// searches reports how many index searches f costs a single-shard cache.
func searches(c *Cache, f func()) int {
	before := c.shards[0].tree.searches
	f()
	return c.shards[0].tree.searches - before
}

// TestOneDescentPerOperation pins the rule the cache is built around: every
// public operation searches its shard's index exactly once, the evictions
// it causes included — a victim is found from the entry, with no search.
func TestOneDescentPerOperation(t *testing.T) {
	c := newTest(1 << 20)
	c.InsertScan(k(100), kvs(100, 100)) // keys 100..199, chained
	c.InsertScan(k(300), kvs(305, 20))  // keys 305..324 under a lower bound
	ops := []struct {
		name string
		op   func()
	}{
		{"Get hit", func() { c.Get(k(150)) }},
		{"Get miss", func() { c.Get(k(250)) }},
		{"Scan hit", func() { c.Scan(k(120), 16) }},
		{"Scan hit on lower bound", func() { c.Scan(k(302), 4) }},
		{"Scan hit mid-chain", func() { c.Scan([]byte("key000120~"), 4) }},
		{"Scan partial", func() { c.Scan(k(190), 16) }},
		{"Scan miss", func() { c.Scan(k(250), 4) }},
		{"Put in place", func() { c.Put(k(150), v(7)) }},
		{"Put into a covered gap", func() { c.Put([]byte("key000160~"), v(7)) }},
		{"Put outside coverage", func() { c.Put(k(250), v(7)) }},
		{"Delete", func() { c.Delete(k(170)) }},
		{"Delete absent", func() { c.Delete(k(250)) }},
		{"InsertPoint new", func() { c.InsertPoint(k(400), v(400)) }},
		{"InsertPoint resident", func() { c.InsertPoint(k(150), v(7)) }},
		{"InsertScan 64 new", func() { c.InsertScan(k(500), kvs(500, 64)) }},
		{"InsertScan 64 resident", func() { c.InsertScan(k(500), kvs(500, 64)) }},
		{"ExtendScan past prefix", func() { c.ExtendScan(k(500), kvs(500, 96), 8) }},
	}
	// The same operations on a full cache, where each one that admits or
	// grows an entry evicts.
	entry := kvs(0, 1)[0]
	full := newTest(128 * (int64(len(entry.Key)+len(entry.Value)) + entryOverhead))
	full.InsertScan(k(100), kvs(100, 128))
	evicting := []struct {
		name string
		op   func()
	}{
		{"InsertPoint new", func() { full.InsertPoint(k(400), v(400)) }},
		{"Put growing a value", func() { full.Put(k(200), []byte("a value longer than any")) }},
		{"Put into a covered gap", func() { full.Put([]byte("key000220~"), v(7)) }},
		{"InsertScan 64 new", func() { full.InsertScan(k(500), kvs(500, 64)) }},
		{"ExtendScan past prefix", func() { full.ExtendScan(k(500), kvs(500, 96), 8) }},
	}
	for _, o := range ops {
		if got := searches(c, o.op); got != 1 {
			t.Errorf("%s: %d searches, want 1", o.name, got)
		}
	}
	for _, o := range evicting {
		before := full.Stats().Evictions
		if got := searches(full, o.op); got != 1 {
			t.Errorf("%s at capacity: %d searches, want 1", o.name, got)
		}
		if full.Stats().Evictions == before {
			t.Errorf("%s at capacity evicted nothing; the case needs a fuller cache", o.name)
		}
	}
}

// TestAdmissionAtCapacityDescendsOncePerRun pins batch admission and
// eviction: a batch of consecutive keys put into a full cache costs one
// search for the whole admission run, and its victims none, whether they
// leave as one run of neighbours or scattered.
func TestAdmissionAtCapacityDescendsOncePerRun(t *testing.T) {
	entry := kvs(0, 1)[0]
	c := newTest(256 * (int64(len(entry.Key)+len(entry.Value)) + entryOverhead))
	for at := 0; at < 512; at += 64 {
		c.InsertScan(k(at), kvs(at, 64))
	}
	if st := c.Stats(); st.Entries != 256 || st.Evictions != 256 {
		t.Fatalf("setup: %+v, want a full cache of 256 entries", st)
	}
	// The 64 oldest entries are one batch, keys 256..319: one run.
	batch := kvs(1000, 64)
	if got := searches(c, func() { c.InsertScan(k(1000), batch) }); got != 1 {
		t.Errorf("InsertScan(64) evicting one batch: %d searches, want 1 (to splice; none for the victims)", got)
	}
	// Touch every other entry of the next batch in line: its untouched
	// entries leave as 32 runs of one.
	for i := 320; i < 384; i += 2 {
		c.Get(k(i))
	}
	batch = kvs(2000, 32)
	if got := searches(c, func() { c.InsertScan(k(2000), batch) }); got != 1 {
		t.Errorf("InsertScan(32) evicting 32 scattered victims: %d searches, want 1", got)
	}
}

// TestAllocationPins bounds what the cache allocates: nothing on a Get hit,
// the result slice on a Scan hit, and for an admission one object per new
// entry plus the batch's shared buffer and the index leaves it fills.
func TestAllocationPins(t *testing.T) {
	c := New(Options{Capacity: 64 << 20})
	table := benchTable[:64*256]
	c.InsertScan(table[0].Key, table[:64])
	key := table[10].Key
	if got := testing.AllocsPerRun(100, func() { c.Get(key) }); got != 0 {
		t.Errorf("Get hit allocates %.1f objects, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { c.Scan(key, 16) }); got > 2 {
		t.Errorf("Scan(16) hit allocates %.1f objects, want <= 2", got)
	}
	at := 64
	if got := testing.AllocsPerRun(100, func() {
		c.InsertScan(table[at].Key, table[at:at+64])
		at += 64
	}); got > 64+3 {
		t.Errorf("InsertScan of 64 new entries allocates %.1f objects, want <= 67 (one per entry + 3)", got)
	}
	if got := testing.AllocsPerRun(100, func() { c.InsertScan(table[0].Key, table[:64]) }); got != 0 {
		t.Errorf("InsertScan of 64 resident entries allocates %.1f objects, want 0", got)
	}
}

// TestUsedTracksHeap checks that the bytes the cache charges are the bytes
// it keeps alive. Every admission here is a partial one — 8 entries of a
// 64-entry result living in one arena, as the engine's scans produce them —
// and once the results are dropped the heap may have grown by no more than
// 1.5x what Used reports. (Entries used to alias the result arena: 8 of 64
// admitted charged 2.7 KB and pinned 18 KB.)
func TestUsedTracksHeap(t *testing.T) {
	const scans, scanLen, admit, keyLen, valueLen = 2000, 64, 8, 24, 256
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := New(Options{Capacity: 64 << 20})
	for scan := 0; scan < scans; scan++ {
		arena := make([]byte, 0, scanLen*(keyLen+valueLen))
		res := make([]KV, scanLen)
		for i := range res {
			from := len(arena)
			arena = append(arena, benchTable[scan*scanLen+i].Key...)
			arena = append(arena, benchTable[scan*scanLen+i].Value...)
			res[i] = KV{Key: arena[from : from+keyLen], Value: arena[from+keyLen:]}
		}
		if got := c.ExtendScan(res[0].Key, res, admit); got != admit {
			t.Fatalf("ExtendScan admitted %d, want %d", got, admit)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	st := c.Stats()
	used, heap := st.Used, int64(after.HeapAlloc)-int64(before.HeapAlloc)
	if st.Entries != scans*admit {
		t.Fatalf("cache holds %d entries, want %d", st.Entries, scans*admit)
	}
	t.Logf("Used %d B, heap grew %d B (%.2fx)", used, heap, float64(heap)/float64(used))
	if float64(heap) > 1.5*float64(used) {
		t.Errorf("heap grew by %d B for %d B charged (%.2fx, want <= 1.5x)", heap, used, float64(heap)/float64(used))
	}
	runtime.KeepAlive(c)
}

// TestLowerBoundStaysInsideShard is the regression test for a claim that
// TestRangeCacheModel found false on a sharded cache: a scan starting in
// one shard whose first result lives in the next recorded "nothing in
// [start, first)" on that entry, but a later Put into the part of the gap
// the start's shard owns reaches only that shard, so the claim went stale.
// An entry must not carry a claim its shard cannot keep true: the bound is
// cut at the shard's lower edge.
func TestLowerBoundStaysInsideShard(t *testing.T) {
	c := newSplit(1<<20, k(50))
	// The database holds key 60 and nothing in [40, 60).
	c.InsertScan(k(40), []KV{{Key: k(60), Value: v(60)}})
	n := c.shards[1].tree.begin().entry()
	if string(n.key) != string(k(60)) || string(n.lowerBound) != string(k(50)) {
		t.Fatalf("entry %q carries lower bound %q, want %q (its shard's edge)", n.key, n.lowerBound, k(50))
	}
	c.Put(k(45), v(45)) // reaches shard 0 only; every claim must still hold
	if _, ok := c.Scan(k(55), 1); !ok {
		t.Fatal("scan from inside the entry's own shard no longer anchors on its bound")
	}
	if _, ok := c.Scan(k(45), 1); ok {
		t.Fatal("scan from the other shard was answered across the boundary")
	}
}

// TestAdmissionOfNonConsecutiveKeysKeepsOrder covers the cursor's guard: a
// caller that admits keys with a cached key between them (so not consecutive
// in the database) pays another search, and the index stays sorted.
func TestAdmissionOfNonConsecutiveKeysKeepsOrder(t *testing.T) {
	c := newTest(1 << 20)
	c.InsertPoint(k(5), v(5))
	c.InsertPoint(k(7), v(7))
	if got := searches(c, func() {
		c.InsertScan(k(4), []KV{{Key: k(4), Value: v(4)}, {Key: k(6), Value: v(6)}, {Key: k(8), Value: v(8)}})
	}); got != 3 {
		t.Errorf("%d searches, want 3: one to start and one past each key in between", got)
	}
	want := 4
	for _, n := range c.shards[0].tree.appendTo(nil) {
		if string(n.key) != string(k(want)) {
			t.Fatalf("index holds %q where %q belongs", n.key, k(want))
		}
		want++
	}
	if want != 9 {
		t.Fatalf("index ends before key %d", want)
	}
}
