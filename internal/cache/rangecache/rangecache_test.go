package rangecache

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"adcache/internal/cache/policy"
)

func k(i int) []byte { return []byte(fmt.Sprintf("key%06d", i)) }
func v(i int) []byte { return []byte(fmt.Sprintf("val%06d", i)) }

func kvs(from, n int) []KV {
	out := make([]KV, n)
	for i := range out {
		out[i] = KV{Key: k(from + i), Value: v(from + i)}
	}
	return out
}

func newTest(capacity int64) *Cache {
	return New(Options{Capacity: capacity, Policy: "lru"})
}

// newSplit returns an empty LRU cache already split at the given keys.
func newSplit(capacity int64, splits ...[]byte) *Cache {
	c := newCache(Options{Capacity: capacity}, len(splits)+1)
	c.layout.Store(&layout{splits: splits})
	for _, s := range c.shards {
		s.pol = policy.New("lru", 16)
	}
	c.setCapacityLocked(capacity)
	return c
}

func TestPointInsertAndGet(t *testing.T) {
	c := newTest(1 << 20)
	c.InsertPoint(k(1), v(1))
	got, ok := c.Get(k(1))
	if !ok || !bytes.Equal(got, v(1)) {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	if _, ok := c.Get(k(2)); ok {
		t.Fatal("Get(absent) hit")
	}
}

func TestScanHitAfterInsertScan(t *testing.T) {
	c := newTest(1 << 20)
	c.InsertScan(k(10), kvs(10, 16))
	got, ok := c.Scan(k(10), 16)
	if !ok {
		t.Fatal("full scan missed")
	}
	for i, kv := range got {
		if !bytes.Equal(kv.Key, k(10+i)) || !bytes.Equal(kv.Value, v(10+i)) {
			t.Fatalf("entry %d = %q/%q", i, kv.Key, kv.Value)
		}
	}
	// Prefix scans hit too.
	if _, ok := c.Scan(k(12), 8); !ok {
		t.Fatal("interior prefix scan missed")
	}
	// Longer than cached: miss.
	if _, ok := c.Scan(k(10), 17); ok {
		t.Fatal("over-long scan hit")
	}
}

func TestScanAnchorsOnLowerBound(t *testing.T) {
	c := newTest(1 << 20)
	// Scan started below the first returned key: [start, k1) proven empty.
	start := []byte("key000005x")
	c.InsertScan(start, kvs(6, 4))
	if _, ok := c.Scan(start, 4); !ok {
		t.Fatal("scan from original start missed")
	}
	// A start inside the proven-empty gap also anchors.
	if _, ok := c.Scan([]byte("key000005zz"), 4); !ok {
		t.Fatal("scan from inside lower-bound gap missed")
	}
	// A start below the proven gap must miss (unknown coverage).
	if _, ok := c.Scan(k(5), 4); ok {
		t.Fatal("scan below lower bound hit")
	}
}

func TestScanAnchorsMidChain(t *testing.T) {
	c := newTest(1 << 20)
	c.InsertScan(k(10), kvs(10, 8))
	// Start between cached keys 12 and 13: contiguity of 12 proves the
	// first DB key >= start is 13.
	start := []byte("key000012zzz")
	got, ok := c.Scan(start, 4)
	if !ok {
		t.Fatal("mid-chain scan missed")
	}
	if !bytes.Equal(got[0].Key, k(13)) {
		t.Fatalf("first key = %q, want %q", got[0].Key, k(13))
	}
}

func TestPointEntriesDoNotFakeContiguity(t *testing.T) {
	c := newTest(1 << 20)
	c.InsertPoint(k(1), v(1))
	c.InsertPoint(k(2), v(2))
	// Keys 1 and 2 are cached individually; the cache cannot prove there is
	// no DB key between them.
	if _, ok := c.Scan(k(1), 2); ok {
		t.Fatal("scan across point entries hit without contiguity proof")
	}
	if _, ok := c.Scan(k(1), 1); !ok {
		t.Fatal("single-entry scan anchored at exact key missed")
	}
}

func TestPutUpdatesInPlace(t *testing.T) {
	c := newTest(1 << 20)
	c.InsertScan(k(0), kvs(0, 4))
	c.Put(k(2), []byte("new"))
	got, ok := c.Scan(k(0), 4)
	if !ok {
		t.Fatal("scan missed after in-place update")
	}
	if string(got[2].Value) != "new" {
		t.Fatalf("updated value = %q", got[2].Value)
	}
}

func TestPutIntoCoveredGapPreservesCoverage(t *testing.T) {
	c := newTest(1 << 20)
	// Cache keys 0,2,4,... as one scan result (they are DB-consecutive).
	entries := []KV{
		{Key: k(0), Value: v(0)},
		{Key: k(2), Value: v(2)},
		{Key: k(4), Value: v(4)},
	}
	c.InsertScan(k(0), entries)
	// A new DB key 1 lands inside the covered gap; the cache must admit it
	// to keep the chain truthful.
	c.Put(k(1), v(1))
	got, ok := c.Scan(k(0), 4)
	if !ok {
		t.Fatal("scan missed after covered-gap insert")
	}
	want := [][]byte{k(0), k(1), k(2), k(4)}
	for i, kv := range got {
		if !bytes.Equal(kv.Key, want[i]) {
			t.Fatalf("entry %d = %q, want %q", i, kv.Key, want[i])
		}
	}
}

func TestPutOutsideCoverageNotAdmitted(t *testing.T) {
	c := newTest(1 << 20)
	c.InsertPoint(k(5), v(5))
	c.Put(k(100), v(100)) // no coverage near key 100
	if _, ok := c.Get(k(100)); ok {
		t.Fatal("write outside coverage was admitted")
	}
}

func TestDeleteMergesCoverage(t *testing.T) {
	c := newTest(1 << 20)
	c.InsertScan(k(0), kvs(0, 5))
	c.Delete(k(2))
	// Keys 0,1,3,4 remain DB-consecutive (2 is gone from the DB too).
	got, ok := c.Scan(k(0), 4)
	if !ok {
		t.Fatal("scan missed after delete merge")
	}
	want := [][]byte{k(0), k(1), k(3), k(4)}
	for i, kv := range got {
		if !bytes.Equal(kv.Key, want[i]) {
			t.Fatalf("entry %d = %q, want %q", i, kv.Key, want[i])
		}
	}
	if _, ok := c.Get(k(2)); ok {
		t.Fatal("deleted key still cached")
	}
}

func TestDeleteAtChainEndBreaksCleanly(t *testing.T) {
	c := newTest(1 << 20)
	c.InsertScan(k(0), kvs(0, 3))
	c.Delete(k(2))
	if _, ok := c.Scan(k(0), 2); !ok {
		t.Fatal("scan of surviving prefix missed")
	}
	if _, ok := c.Scan(k(0), 3); ok {
		t.Fatal("scan past deleted tail hit")
	}
}

func TestEvictionBreaksContiguity(t *testing.T) {
	// Tiny capacity: inserting a second scan evicts entries of the first.
	c := newTest(6 * (int64(len(k(0))+len(v(0))) + entryOverhead))
	c.InsertScan(k(0), kvs(0, 6))
	if _, ok := c.Scan(k(0), 6); !ok {
		t.Fatal("initial scan missed")
	}
	c.InsertScan(k(100), kvs(100, 4))
	// Some prefix of the first chain is gone; a full rescan must miss.
	if _, ok := c.Scan(k(0), 6); ok {
		t.Fatal("scan hit although part of the chain was evicted")
	}
	used, capacity := c.Stats().Used, c.Capacity()
	if used > capacity {
		t.Fatalf("used %d exceeds capacity %d", used, capacity)
	}
}

func TestResizeEvicts(t *testing.T) {
	c := newTest(1 << 20)
	c.InsertScan(k(0), kvs(0, 100))
	c.Resize(10 * (int64(len(k(0))+len(v(0))) + entryOverhead))
	if st := c.Stats(); st.Entries > 10 || st.Used > st.Capacity {
		t.Fatalf("after shrink: %+v", st)
	}
}

// TestCapacityMatchesShards holds the lock-free Capacity to what the shards
// are actually budgeted, rounding included, from New, after every Resize
// and after the split.
func TestCapacityMatchesShards(t *testing.T) {
	c := newCache(Options{Capacity: 1000}, 3)
	for _, resize := range []int64{0, 4096, 100, 1<<20 + 1, -1, 1001, 7} {
		switch {
		case resize < 0:
			c.InsertScan(k(0), kvs(0, 20))
			forceSplit(c)
		case resize > 0:
			c.Resize(resize)
		}
		if got, want := c.Capacity(), c.Stats().Capacity; got != want {
			t.Fatalf("Capacity() = %d, shards hold %d", got, want)
		}
	}
	if live := len(c.ShardStats()); live != 3 {
		t.Fatalf("%d live shards after the split, want 3", live)
	}
}

// TestShardCount pins the rule that sizes the shard set: one shard per 512
// KiB of the budget given to New, a power of two, at most 16.
func TestShardCount(t *testing.T) {
	for _, tc := range []struct {
		capacity int64
		want     int
	}{{0, 1}, {512 << 10, 1}, {1<<20 - 1, 1}, {1 << 20, 2}, {6 << 20, 8}, {8 << 20, 16}, {1 << 30, 16}} {
		if got := len(New(Options{Capacity: tc.capacity}).shards); got != tc.want {
			t.Errorf("budget %d: %d shards, want %d", tc.capacity, got, tc.want)
		}
	}
}

// TestScanChainCrossesShardEdge admits a result that straddles a shard
// edge and scans across it: the chain hits, from inside either shard and
// from the gap past the lower shard's last entry, and breaks once the
// upper shard's first entry, which ties it to the edge, is evicted.
func TestScanChainCrossesShardEdge(t *testing.T) {
	c := newSplit(1<<20, k(50), k(70))
	c.InsertScan(k(10), kvs(10, 8))
	c.InsertScan(k(60), kvs(60, 8))
	if _, ok := c.Scan(k(10), 8); !ok {
		t.Fatal("scan in shard 0 missed")
	}
	if _, ok := c.Scan(k(60), 8); !ok {
		t.Fatal("scan in shard 1 missed")
	}
	// Keys 40, 42, ..., 80 are consecutive in the database: the result
	// spans all three shards, and no entry lies on an edge.
	var res []KV
	for i := 40; i <= 80; i += 2 {
		res = append(res, KV{Key: k(i), Value: v(i)})
	}
	c = newSplit(1<<20, []byte("key000051~"), []byte("key000069~"))
	c.InsertScan(k(40), res)
	for _, tc := range []struct {
		start []byte
		n     int
		first int
	}{
		{k(46), 8, 46},                 // shard 0 into shard 1
		{k(40), len(res), 40},          // through every shard
		{[]byte("key000050~"), 4, 52},  // past shard 0's last entry
		{[]byte("key000051~~"), 4, 52}, // shard 1 below its first entry
		{k(66), 6, 66},                 // shard 1 into shard 2
	} {
		got, ok := c.Scan(tc.start, tc.n)
		if !ok {
			t.Fatalf("Scan(%q, %d) missed", tc.start, tc.n)
		}
		for j, kv := range got {
			if want := k(tc.first + 2*j); !bytes.Equal(kv.Key, want) || !bytes.Equal(kv.Value, v(tc.first+2*j)) {
				t.Fatalf("Scan(%q, %d)[%d] = %q, want %q", tc.start, tc.n, j, kv.Key, want)
			}
		}
	}
	if st := c.Stats(); st.ScanHits != 5 || st.ScanMisses+st.ScanPartials != 0 {
		t.Fatalf("counters %+v, want 5 hits on the start shards", st)
	}
	// Key 51 is born in shard 0's part of the gap: the chain takes it in.
	c.Put(k(51), v(51))
	if got, ok := c.Scan(k(50), 3); !ok || !bytes.Equal(got[1].Key, k(51)) || !bytes.Equal(got[2].Key, k(52)) {
		t.Fatalf("Scan after a put into the edge gap = %q, %v", got, ok)
	}
	// And dies again: key 50 inherits its claim on the edge.
	c.Delete(k(51))
	if got, ok := c.Scan(k(50), 2); !ok || !bytes.Equal(got[1].Key, k(52)) {
		t.Fatalf("Scan after deleting shard 0's last key = %q, %v", got, ok)
	}
	// Evict shard 1's first entry; the chain into shard 1 must break.
	for i := 54; i < 70; i += 2 {
		c.Get(k(i))
	}
	s1 := c.shards[1]
	s1.mu.Lock()
	s1.capacity = s1.used - 1
	s1.enforceCapacityLocked()
	s1.mu.Unlock()
	if _, ok := c.Get(k(52)); ok {
		t.Fatal("key 52 was not shard 1's victim; the test needs another way to evict it")
	}
	if got, ok := c.Scan(k(48), 3); ok {
		t.Fatalf("Scan(48, 3) = %q across an evicted key", got)
	}
	if _, ok := c.Scan(k(48), 2); !ok {
		t.Fatal("Scan(48, 2) up to the edge missed")
	}
}

func TestStatsCounters(t *testing.T) {
	c := newTest(1 << 20)
	c.InsertScan(k(0), kvs(0, 4))
	c.Scan(k(0), 4)  // hit
	c.Scan(k(0), 10) // partial (chain too short)
	c.Scan(k(90), 3) // miss
	c.Get(k(1))      // hit
	c.Get(k(99))     // miss
	st := c.Stats()
	if st.ScanHits != 1 || st.ScanPartials != 1 || st.ScanMisses != 1 {
		t.Fatalf("scan counters = %+v", st)
	}
	if st.GetHits != 1 || st.GetMisses != 1 {
		t.Fatalf("get counters = %+v", st)
	}
}

// TestCoherenceAgainstModel property-tests the cache against a model
// database: after random interleavings of scans (admitted to the cache),
// writes and deletes, every cache-served scan must equal the model's answer.
func TestCoherenceAgainstModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := newTest(1 << 20)
		model := map[string]string{}
		for i := 0; i < 200; i++ {
			model[string(k(rng.Intn(100)))] = string(v(rng.Intn(1000)))
		}
		modelScan := func(start string, n int) []KV {
			var keysList []string
			for key := range model {
				if key >= start {
					keysList = append(keysList, key)
				}
			}
			sort.Strings(keysList)
			if len(keysList) > n {
				keysList = keysList[:n]
			}
			out := make([]KV, len(keysList))
			for i, key := range keysList {
				out[i] = KV{Key: []byte(key), Value: []byte(model[key])}
			}
			return out
		}
		for op := 0; op < 400; op++ {
			switch rng.Intn(4) {
			case 0: // scan through "DB", admit result
				start := string(k(rng.Intn(100)))
				n := 1 + rng.Intn(20)
				res := modelScan(start, n)
				if len(res) == n { // only full results are admitted (like the DB path)
					c.InsertScan([]byte(start), res)
				}
			case 1: // cached scan must match the model
				start := string(k(rng.Intn(100)))
				n := 1 + rng.Intn(20)
				if got, ok := c.Scan([]byte(start), n); ok {
					want := modelScan(start, n)
					if len(got) != len(want) {
						return false
					}
					for i := range got {
						if string(got[i].Key) != string(want[i].Key) ||
							string(got[i].Value) != string(want[i].Value) {
							return false
						}
					}
				}
			case 2: // write
				key := string(k(rng.Intn(100)))
				val := string(v(rng.Intn(1000)))
				model[key] = val
				c.Put([]byte(key), []byte(val))
			case 3: // delete
				key := string(k(rng.Intn(100)))
				delete(model, key)
				c.Delete([]byte(key))
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentShardsRemainCoherent(t *testing.T) {
	// The database is keys 0..999, each holding v(key). Writers rewrite
	// those values and admitters insert scan results while a splitter
	// moves the boundaries and resizes the cache; readers check every hit
	// against the database. Under -race this validates the sharded
	// locking: scans that chain across edges, operations that raced a
	// split and retried, splits that drain and refill the policies.
	c := newCache(Options{Capacity: 1 << 20}, 4)
	c.InsertScan(k(0), kvs(0, 1000))
	forceSplit(c)
	var workers, readers sync.WaitGroup
	stop := make(chan struct{})
	background := func(seed int64, op func(rng *rand.Rand)) {
		workers.Add(1)
		go func() {
			defer workers.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				op(rng)
			}
		}()
	}
	for w := 0; w < 2; w++ {
		background(int64(w), func(rng *rand.Rand) { idx := rng.Intn(1000); c.Put(k(idx), v(idx)) })
	}
	background(10, func(rng *rand.Rand) {
		from := rng.Intn(1000)
		c.InsertScan(k(from), kvs(from, min(1+rng.Intn(64), 1000-from)))
	})
	background(20, func(rng *rand.Rand) {
		forceSplit(c)
		c.Resize(int64(200+rng.Intn(800)) * 100)
	})
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for i := 0; i < 20_000; i++ {
				idx := rng.Intn(1000)
				if got, ok := c.Get(k(idx)); ok && !bytes.Equal(got, v(idx)) {
					t.Errorf("Get(%d) = %q", idx, got)
					return
				}
				n := 1 + rng.Intn(32)
				if res, ok := c.Scan(k(idx), n); ok {
					for j, kv := range res {
						if !bytes.Equal(kv.Key, k(idx+j)) || !bytes.Equal(kv.Value, v(idx+j)) {
							t.Errorf("Scan(%d, %d)[%d] = %q:%q", idx, n, j, kv.Key, kv.Value)
							return
						}
					}
				}
			}
		}(r)
	}
	readers.Wait()
	close(stop)
	workers.Wait()
	if st := c.Stats(); st.Used > st.Capacity || st.ScanHits == 0 {
		t.Fatalf("after the run: %+v", st)
	}
	if c.splits < 2 {
		t.Fatalf("%d splits ran alongside the readers", c.splits)
	}
}

// TestPutIntoGapRetiresLowerBound is the regression test for a stale
// emptiness claim found by lsm's TestCoherenceStress: a key written into a
// gap that is covered from both sides — its predecessor's contiguity claim
// and its successor's lower bound — was chained to the predecessor, but the
// successor kept claiming that nothing lives between the bound and itself.
// Once the new key was evicted, a scan from it was answered with the
// successor.
func TestPutIntoGapRetiresLowerBound(t *testing.T) {
	c := newTest(1 << 20)
	// The database holds keys 1 and 3; key 2 is absent.
	c.InsertScan(k(1), []KV{{Key: k(1), Value: v(1)}, {Key: k(3), Value: v(3)}}) // 1 → 3 contiguous
	c.InsertScan(k(2), []KV{{Key: k(3), Value: v(3)}})                           // nothing in [2, 3)
	c.Put(k(2), v(2))                                                            // key 2 is born
	if got, ok := c.Scan(k(2), 2); !ok || string(got[0].Key) != string(k(2)) || string(got[1].Key) != string(k(3)) {
		t.Fatalf("Scan from the new key = %v ok=%v, want keys 2, 3", got, ok)
	}
	// Evict key 2 (least recently used once 1 and 3 are touched).
	c.Get(k(1))
	c.Get(k(3))
	c.Resize(c.Stats().Used - 1)
	c.Resize(1 << 20)
	if _, ok := c.Get(k(2)); ok {
		t.Fatal("key 2 was not the eviction victim; the test needs another way to evict it")
	}
	if got, ok := c.Scan(k(2), 1); ok {
		t.Fatalf("Scan(2, 1) answered %q from the cache: key 2 is in the database", got[0].Key)
	}
}
