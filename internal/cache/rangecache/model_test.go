package rangecache

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
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
// subset and value equality, each contigNext and lowerBound claim, byte
// accounting and the policy tracking exactly the resident entries.
func checkClaims(t *testing.T, c *Cache, m *modelDB, step int, what string) {
	t.Helper()
	for si, s := range c.shards {
		s.mu.Lock()
		var used int64
		entries := 0
		for n := s.list.first(); n != nil; n = n.next(0) {
			i := modelCeil(string(n.key))
			if len(n.key) != len("key000000") || !m.present[i] {
				t.Fatalf("step %d (%s): shard %d caches %q, not in the database", step, what, si, n.key)
			}
			if !bytes.Equal(n.value, m.value(i)) {
				t.Fatalf("step %d (%s): %q cached as %q, database has %q", step, what, n.key, n.value, m.value(i))
			}
			if nx := n.next(0); n.contigNext && nx != nil {
				if j := modelCeil(string(nx.key)); !m.empty(i+1, j) {
					t.Fatalf("step %d (%s): %q claims %q is its successor, but the database has a key between", step, what, n.key, nx.key)
				}
			}
			if len(n.lowerBound) > 0 {
				if lb := modelCeil(string(n.lowerBound)); !m.empty(lb, i) {
					t.Fatalf("step %d (%s): %q claims [%q, itself) is empty, the database disagrees", step, what, n.key, n.lowerBound)
				}
			}
			used += n.size()
			entries++
		}
		if used != s.used || s.used > s.capacity {
			t.Fatalf("step %d (%s): shard %d used=%d, entries sum to %d, capacity %d", step, what, si, s.used, used, s.capacity)
		}
		if entries != s.list.len() || entries != s.pol.Len() {
			t.Fatalf("step %d (%s): shard %d walks %d entries, list counts %d, policy tracks %d", step, what, si, entries, s.list.len(), s.pol.Len())
		}
		s.mu.Unlock()
	}
}

func runRangeCacheModel(t *testing.T, policyName string, splits []string, seed int64, ops int) {
	rng := rand.New(rand.NewSource(seed))
	const entryBytes = 9 + 8 + entryOverhead
	c := New(Options{Capacity: 40 * entryBytes, Policy: policyName, SplitKeys: splits, Seed: seed})
	m := &modelDB{}
	for i := range m.present {
		if rng.Intn(3) > 0 {
			m.put(i)
		}
	}
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
		case op < 58:
			what = "Resize"
			c.Resize(int64((4 + rng.Intn(60)) * entryBytes))
		case op < 60:
			what = "forced eviction"
			capacity := c.Capacity()
			c.Resize(c.Used() / 2)
			c.Resize(capacity)
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
			}
		}
		checkClaims(t, c, m, step, what)
	}
	if st := c.Stats(); st.GetHits == 0 || st.ScanHits == 0 || st.Evictions == 0 {
		t.Fatalf("model run exercised too little: %+v", st)
	}
}

// TestRangeCacheModel drives random writes, admissions, resizes and forced
// evictions against the model database and checks every hit and every
// coverage claim after each step — for all five policies, one and four
// shards, three fixed seeds.
func TestRangeCacheModel(t *testing.T) {
	ops := 100_000
	if testing.Short() {
		ops = 5_000
	}
	shardings := map[string][]string{
		"1shard":  nil,
		"4shards": {string(k(24)), string(k(48)), string(k(72))},
	}
	for _, policyName := range []string{"lru", "lfu", "arc", "lecar", "cacheus"} {
		for name, splits := range shardings {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/%s/seed%d", policyName, name, seed), func(t *testing.T) {
					t.Parallel()
					runRangeCacheModel(t, policyName, splits, seed, ops)
				})
			}
		}
	}
}
