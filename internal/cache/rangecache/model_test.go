package rangecache

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

// The model is the *database* the cache sits in front of: a sorted map over
// a small key universe. The cache must stay a subset of it, every hit must
// equal its answer, and every coverage claim an entry carries (contigNext,
// lowerBound) must be true of it.
const modelKeys = 96

type modelDB struct {
	present [modelKeys]bool
	version [modelKeys]int
	values  [modelKeys][]byte
}

// put writes a fresh value for key i.
func (m *modelDB) put(i int) {
	m.present[i] = true
	m.version[i]++
	m.values[i] = []byte(fmt.Sprintf("v%02d.%04d", i, m.version[i]))
}

func (m *modelDB) value(i int) []byte { return m.values[i] }

// modelKey is the i-th universe key; between additionally yields a key that
// sorts strictly between key i and key i+1 and is never in the database.
func modelKey(i int, between bool) []byte {
	if between {
		return []byte(fmt.Sprintf("key%06d~", i))
	}
	return k(i)
}

// modelCeil maps any key back into index space: the smallest i with
// modelKey(i) >= key.
func modelCeil(key string) int {
	i, err := strconv.Atoi(key[3:9])
	if err != nil {
		panic(err)
	}
	if len(key) > len("key000000") {
		i++
	}
	return i
}

// scan is the database's answer to Scan(modelKey(start), n).
func (m *modelDB) scan(start, n int) []KV {
	var out []KV
	for i := start; i < modelKeys && len(out) < n; i++ {
		if m.present[i] {
			out = append(out, KV{Key: k(i), Value: m.value(i)})
		}
	}
	return out
}

// empty reports whether the database holds no key with lo <= index < hi.
func (m *modelDB) empty(lo, hi int) bool {
	for i := lo; i < hi; i++ {
		if m.present[i] {
			return false
		}
	}
	return true
}

// checkClaims walks every shard and verifies the cache against the model:
// subset and value equality, each contigNext and lowerBound claim — a
// shard's last entry claiming its upper edge included — every entry inside
// its shard's range, byte and stale accounting, and the policy tracking
// exactly the resident entries.
func checkClaims(t *testing.T, c *Cache, m *modelDB, step int, what string) {
	t.Helper()
	c.lockAll()
	defer c.unlockAll()
	l := c.layout.Load()
	var capacity int64
	for si, s := range c.shards {
		if si >= l.live() {
			if s.tree.count != 0 || s.capacity != 0 {
				t.Fatalf("step %d (%s): idle shard %d holds %d entries, %d bytes of budget", step, what, si, s.tree.count, s.capacity)
			}
			continue
		}
		lower, upper := l.lower(si), l.upper(si)
		var used, older int64
		var ages [ageWindow]int64
		entries := 0
		for cur := s.tree.begin(); cur.entry() != nil; cur.advance() {
			n, succ := cur.entry(), cur
			succ.advance()
			i := modelCeil(string(n.key))
			if len(n.key) != len("key000000") || !m.present[i] {
				t.Fatalf("step %d (%s): shard %d caches %q, not in the database", step, what, si, n.key)
			}
			if bytes.Compare(n.key, lower) < 0 || (upper != nil && bytes.Compare(n.key, upper) >= 0) {
				t.Fatalf("step %d (%s): shard %d [%q, %q) holds %q", step, what, si, lower, upper, n.key)
			}
			if !bytes.Equal(n.value, m.value(i)) {
				t.Fatalf("step %d (%s): %q cached as %q, database has %q", step, what, n.key, n.value, m.value(i))
			}
			if nx := succ.entry(); n.contigNext {
				switch {
				case nx != nil:
					if j := modelCeil(string(nx.key)); !m.empty(i+1, j) {
						t.Fatalf("step %d (%s): %q claims %q is its successor, but the database has a key between", step, what, n.key, nx.key)
					}
				case upper == nil:
					t.Fatalf("step %d (%s): %q, the last entry, claims a successor", step, what, n.key)
				default:
					if j := modelCeil(string(upper)); !m.empty(i+1, j) {
						t.Fatalf("step %d (%s): %q claims nothing lives up to shard %d's edge %q, the database disagrees", step, what, n.key, si, upper)
					}
				}
			}
			if len(n.lowerBound) > 0 {
				if bytes.Compare(n.lowerBound, lower) < 0 {
					t.Fatalf("step %d (%s): %q's lower bound %q reaches below its shard's edge %q", step, what, n.key, n.lowerBound, lower)
				}
				if lb := modelCeil(string(n.lowerBound)); !m.empty(lb, i) {
					t.Fatalf("step %d (%s): %q claims [%q, itself) is empty, the database disagrees", step, what, n.key, n.lowerBound)
				}
			}
			used += n.size()
			if c.epoch-n.epoch < ageWindow {
				ages[n.epoch%ageWindow] += n.size()
			} else {
				older += n.size()
			}
			entries++
		}
		if used != s.used || s.used > s.capacity {
			t.Fatalf("step %d (%s): shard %d used=%d, entries sum to %d, capacity %d", step, what, si, s.used, used, s.capacity)
		}
		if ages != s.ages || older != s.older {
			t.Fatalf("step %d (%s): shard %d counts bytes by age %v + %d older, its entries %v + %d", step, what, si, s.ages, s.older, ages, older)
		}
		if entries != s.tree.count || entries != s.pol.Len() {
			t.Fatalf("step %d (%s): shard %d walks %d entries, index counts %d, policy tracks %d", step, what, si, entries, s.tree.count, s.pol.Len())
		}
		capacity += s.capacity
	}
	if capacity != c.Capacity() {
		t.Fatalf("step %d (%s): shards hold %d bytes of budget, the cache says %d", step, what, capacity, c.Capacity())
	}
}

// forceSplit re-derives the boundaries now, lopsided or not.
func forceSplit(c *Cache) {
	c.lockAll()
	c.splitLocked(0, false)
	c.unlockAll()
}

func runRangeCacheModel(t *testing.T, policyName string, shards int, seed int64, ops int) {
	rng := rand.New(rand.NewSource(seed))
	const entryBytes = 9 + 8 + entryOverhead
	c := newCache(Options{Capacity: 40 * entryBytes, Policy: policyName}, shards)
	m := &modelDB{}
	for i := range m.present {
		if rng.Intn(3) > 0 {
			m.put(i)
		}
	}
	crossed := 0 // scan hits whose chain spans a shard edge
	for step := 0; step < ops; step++ {
		i := rng.Intn(modelKeys)
		var what string
		switch op := rng.Intn(100); {
		case op < 12:
			what = "Put"
			m.put(i)
			c.Put(k(i), m.value(i))
		case op < 20:
			what = "Delete"
			m.present[i] = false
			c.Delete(k(i))
		case op < 30:
			what = "InsertPoint"
			if m.present[i] {
				c.InsertPoint(k(i), m.value(i))
			}
		case op < 55:
			// A scan's result is every live key from the first one >= start;
			// the strategy may admit any prefix of it. start is a database
			// key, an absent universe key or a key between two of them.
			what = "InsertScan"
			between := rng.Intn(4) == 0
			from := i
			if between {
				from = i + 1
			}
			res := m.scan(from, 1+rng.Intn(24))
			if len(res) > 0 && rng.Intn(2) == 0 {
				res = res[:1+rng.Intn(len(res))]
				what = "InsertScan (truncated)"
			}
			c.InsertScan(modelKey(i, between), res)
		case op < 57:
			what = "Resize"
			c.Resize(int64((4 + rng.Intn(60)) * entryBytes))
		case op < 59:
			what = "forced eviction"
			capacity := c.Capacity()
			c.Resize(c.Stats().Used / 2)
			c.Resize(capacity)
		case op < 60:
			what = "split"
			forceSplit(c)
		case op < 80:
			what = "Get"
			if got, ok := c.Get(k(i)); ok && (!m.present[i] || !bytes.Equal(got, m.value(i))) {
				t.Fatalf("step %d: Get(%q) hit with %q; database present=%v value=%q", step, k(i), got, m.present[i], m.value(i))
			}
		default:
			what = "Scan"
			between := rng.Intn(4) == 0
			from := i
			if between {
				from = i + 1
			}
			n := 1 + rng.Intn(24)
			if got, ok := c.Scan(modelKey(i, between), n); ok {
				want := m.scan(from, n)
				if len(got) != n || len(want) != n {
					t.Fatalf("step %d: Scan(%q, %d) hit with %d entries; database has %d", step, modelKey(i, between), n, len(got), len(want))
				}
				for j := range got {
					if !bytes.Equal(got[j].Key, want[j].Key) || !bytes.Equal(got[j].Value, want[j].Value) {
						t.Fatalf("step %d: Scan(%q, %d)[%d] = %q:%q, database has %q:%q", step, modelKey(i, between), n, j, got[j].Key, got[j].Value, want[j].Key, want[j].Value)
					}
				}
				if l := c.layout.Load(); l.index(got[0].Key) != l.index(got[n-1].Key) {
					crossed++
				}
			}
		}
		checkClaims(t, c, m, step, what)
	}
	if st := c.Stats(); st.GetHits == 0 || st.ScanHits == 0 || st.Evictions == 0 {
		t.Fatalf("model run exercised too little: %+v", st)
	}
	if shards > 1 && (crossed == 0 || c.splits == 0) {
		t.Fatalf("model run split %d times and no scan hit crossed a shard edge (%d)", c.splits, crossed)
	}
}

// TestRangeCacheModel drives random writes, admissions, resizes, forced
// evictions and forced splits against the model database and checks every
// hit — chains across shard edges included — and every coverage claim
// after each step: for all three policies, one and four shards, three
// fixed seeds.
func TestRangeCacheModel(t *testing.T) {
	ops := 100_000
	if testing.Short() {
		ops = 5_000
	}
	for _, policyName := range []string{"lru", "lecar", "cacheus"} {
		for name, shards := range map[string]int{"1shard": 1, "4shards": 4} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/%s/seed%d", policyName, name, seed), func(t *testing.T) {
					t.Parallel()
					runRangeCacheModel(t, policyName, shards, seed, ops)
				})
			}
		}
	}
}

// TestRangeCacheModelConcurrent runs the model with concurrency: in each
// round the database changes single-threaded (Put, Delete), then readers
// hit points and scans concurrently while an admitter fills the cache from
// the model's answers and a splitter resizes it and moves its shard edges.
// Every hit — chains across shard edges included — must equal the model's
// answer, and every claim must hold after the round.
func TestRangeCacheModelConcurrent(t *testing.T) {
	rounds := 60
	if testing.Short() {
		rounds = 10
	}
	for _, policyName := range []string{"lru", "lecar", "cacheus"} {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", policyName, seed), func(t *testing.T) {
				runConcurrentModel(t, policyName, seed, rounds)
			})
		}
	}
}

func runConcurrentModel(t *testing.T, policyName string, seed int64, rounds int) {
	const (
		entryBytes = 9 + 8 + entryOverhead
		readers    = 3
		readOps    = 400
	)
	rng := rand.New(rand.NewSource(seed))
	c := newCache(Options{Capacity: 48 * entryBytes, Policy: policyName}, 4)
	m := &modelDB{}
	for i := range m.present {
		if rng.Intn(3) > 0 {
			m.put(i)
		}
	}
	// scanStart draws a scan's start key: a universe key or, one time in
	// four, a key between two of them; from is its model index.
	scanStart := func(rng *rand.Rand) (start []byte, from int) {
		i := rng.Intn(modelKeys)
		if rng.Intn(4) == 0 {
			return modelKey(i, true), i + 1
		}
		return modelKey(i, false), i
	}
	var crossed atomic.Int64
	for round := 0; round < rounds; round++ {
		for j := 0; j < 8; j++ {
			i := rng.Intn(modelKeys)
			if rng.Intn(3) == 0 {
				m.present[i] = false
				c.Delete(k(i))
			} else {
				m.put(i)
				c.Put(k(i), m.value(i))
			}
		}
		// The model is read-only from here until the round ends.
		var wg sync.WaitGroup
		stop := make(chan struct{})
		background := func(seed int64, op func(rng *rand.Rand)) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for {
					select {
					case <-stop:
						return
					default:
						op(rng)
					}
				}
			}()
		}
		base := seed*1000 + int64(round)*10
		background(base, func(rng *rand.Rand) {
			if i := rng.Intn(modelKeys); rng.Intn(3) == 0 && m.present[i] {
				c.InsertPoint(k(i), m.value(i))
				return
			}
			start, from := scanStart(rng)
			c.InsertScan(start, m.scan(from, 1+rng.Intn(24)))
		})
		background(base+1, func(rng *rand.Rand) {
			if rng.Intn(4) == 0 {
				forceSplit(c)
			}
			c.Resize(int64((24 + rng.Intn(40)) * entryBytes))
			runtime.Gosched()
		})
		var readersDone sync.WaitGroup
		for r := 0; r < readers; r++ {
			readersDone.Add(1)
			go func(rng *rand.Rand) {
				defer readersDone.Done()
				for op := 0; op < readOps; op++ {
					if i := rng.Intn(modelKeys); rng.Intn(2) == 0 {
						if got, ok := c.Get(k(i)); ok && (!m.present[i] || !bytes.Equal(got, m.value(i))) {
							t.Errorf("round %d: Get(%q) hit with %q; database present=%v value=%q", round, k(i), got, m.present[i], m.value(i))
							return
						}
						continue
					}
					start, from := scanStart(rng)
					n := 1 + rng.Intn(24)
					got, ok := c.Scan(start, n)
					if !ok {
						continue
					}
					want := m.scan(from, n)
					if len(got) != n || len(want) != n {
						t.Errorf("round %d: Scan(%q, %d) hit with %d entries; database has %d", round, start, n, len(got), len(want))
						return
					}
					for j := range got {
						if !bytes.Equal(got[j].Key, want[j].Key) || !bytes.Equal(got[j].Value, want[j].Value) {
							t.Errorf("round %d: Scan(%q, %d)[%d] = %q:%q, database has %q:%q", round, start, n, j, got[j].Key, got[j].Value, want[j].Key, want[j].Value)
							return
						}
					}
					if l := c.layout.Load(); l.index(got[0].Key) != l.index(got[n-1].Key) {
						crossed.Add(1)
					}
				}
			}(rand.New(rand.NewSource(base + 2 + int64(r))))
		}
		readersDone.Wait()
		close(stop)
		wg.Wait()
		if t.Failed() {
			return
		}
		checkClaims(t, c, m, round, "concurrent round")
	}
	if st := c.Stats(); st.GetHits == 0 || st.ScanHits == 0 || c.splits == 0 || crossed.Load() == 0 {
		t.Fatalf("concurrent model run exercised too little: %+v, %d splits, %d scan hits across an edge", st, c.splits, crossed.Load())
	}
}
