package memtable

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"adcache/internal/keys"
)

func TestSetGet(t *testing.T) {
	m := New(1)
	m.Set(keys.Make([]byte("a"), 1, keys.KindSet), []byte("v1"))
	v, deleted, ok := m.Get([]byte("a"), keys.MaxSeq)
	if !ok || deleted || string(v) != "v1" {
		t.Fatalf("Get = %q deleted=%v ok=%v", v, deleted, ok)
	}
	if _, _, ok := m.Get([]byte("b"), keys.MaxSeq); ok {
		t.Fatal("found absent key")
	}
}

func TestVersionsAndSnapshots(t *testing.T) {
	m := New(1)
	m.Set(keys.Make([]byte("k"), 1, keys.KindSet), []byte("v1"))
	m.Set(keys.Make([]byte("k"), 5, keys.KindSet), []byte("v5"))
	m.Set(keys.Make([]byte("k"), 9, keys.KindDelete), nil)
	if _, deleted, ok := m.Get([]byte("k"), keys.MaxSeq); !ok || !deleted {
		t.Fatal("latest version should be the tombstone")
	}
	if v, _, ok := m.Get([]byte("k"), 7); !ok || string(v) != "v5" {
		t.Fatalf("snapshot 7 = %q", v)
	}
	if v, _, ok := m.Get([]byte("k"), 1); !ok || string(v) != "v1" {
		t.Fatalf("snapshot 1 = %q", v)
	}
	if _, _, ok := m.Get([]byte("k"), 0); ok {
		t.Fatal("snapshot 0 should see nothing")
	}
}

func TestIterOrdered(t *testing.T) {
	m := New(42)
	perm := rand.New(rand.NewSource(1)).Perm(500)
	for _, i := range perm {
		m.Set(keys.Make([]byte(fmt.Sprintf("key%06d", i)), uint64(i+1), keys.KindSet), []byte("v"))
	}
	it := m.NewIter()
	i := 0
	for ok := it.First(); ok; ok = it.Next() {
		want := fmt.Sprintf("key%06d", i)
		if string(it.Key().UserKey()) != want {
			t.Fatalf("entry %d = %s, want %s", i, it.Key().UserKey(), want)
		}
		i++
	}
	if i != 500 {
		t.Fatalf("iterated %d", i)
	}
}

func TestIterSeek(t *testing.T) {
	m := New(1)
	for i := 0; i < 100; i += 2 {
		m.Set(keys.Make([]byte(fmt.Sprintf("key%06d", i)), uint64(i+1), keys.KindSet), []byte("v"))
	}
	it := m.NewIter()
	if !it.Seek(keys.MakeSearch([]byte("key000050"), keys.MaxSeq)) {
		t.Fatal("seek failed")
	}
	if string(it.Key().UserKey()) != "key000050" {
		t.Fatalf("seek landed on %s", it.Key().UserKey())
	}
	// Seek to an absent key lands on the successor.
	it.Seek(keys.MakeSearch([]byte("key000051"), keys.MaxSeq))
	if string(it.Key().UserKey()) != "key000052" {
		t.Fatalf("seek to gap landed on %s", it.Key().UserKey())
	}
}

func TestSizeAndCount(t *testing.T) {
	m := New(1)
	if !m.Empty() {
		t.Fatal("new memtable not empty")
	}
	m.Set(keys.Make([]byte("abc"), 1, keys.KindSet), []byte("defgh"))
	if m.Count() != 1 || m.Empty() {
		t.Fatal("count wrong after insert")
	}
	if m.ApproximateSize() <= 0 {
		t.Fatal("size not tracked")
	}
}

func TestConcurrentReadsDuringWrites(t *testing.T) {
	m := New(1)
	for i := 0; i < 1000; i++ {
		m.Set(keys.Make([]byte(fmt.Sprintf("key%06d", i)), uint64(i+1), keys.KindSet), []byte("v"))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				k := []byte(fmt.Sprintf("key%06d", rng.Intn(1000)))
				if _, _, ok := m.Get(k, keys.MaxSeq); !ok {
					t.Errorf("lost key %s", k)
					return
				}
			}
		}(int64(g))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1000; i < 2000; i++ {
			m.Set(keys.Make([]byte(fmt.Sprintf("key%06d", i)), uint64(i+1), keys.KindSet), []byte("v"))
		}
	}()
	wg.Wait()
}

// TestModelEquivalence property-checks Get/iteration against a sorted map
// model.
func TestModelEquivalence(t *testing.T) {
	f := func(ops []struct {
		Key byte
		Val byte
		Del bool
	}) bool {
		m := New(7)
		model := map[string]struct {
			val string
			del bool
		}{}
		for i, op := range ops {
			k := fmt.Sprintf("k%03d", op.Key)
			kind := keys.KindSet
			var v []byte
			if op.Del {
				kind = keys.KindDelete
			} else {
				v = []byte{op.Val}
			}
			m.Set(keys.Make([]byte(k), uint64(i+1), kind), v)
			model[k] = struct {
				val string
				del bool
			}{string(v), op.Del}
		}
		for k, want := range model {
			v, deleted, ok := m.Get([]byte(k), keys.MaxSeq)
			if !ok {
				return false
			}
			if deleted != want.del {
				return false
			}
			if !deleted && string(v) != want.val {
				return false
			}
		}
		// Iteration yields user keys in sorted order.
		var got []string
		it := m.NewIter()
		for ok := it.First(); ok; ok = it.Next() {
			got = append(got, string(it.Key().UserKey()))
		}
		return sort.StringsAreSorted(got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNewerThan(t *testing.T) {
	m := New(1)
	m.Set(keys.Make([]byte("b"), 3, keys.KindSet), []byte("v"))
	m.Set(keys.Make([]byte("d"), 5, keys.KindDelete), nil)
	m.Set(keys.Make([]byte("d"), 2, keys.KindSet), []byte("v"))
	m.Set(keys.Make([]byte("f"), 9, keys.KindSet), []byte("v"))
	for _, tc := range []struct {
		lo, hi string // hi "" = unbounded
		seq    uint64
		want   bool
	}{
		{"a", "z", 9, false},
		{"a", "z", 8, true},
		{"a", "e", 5, false},
		{"a", "e", 4, true},  // the tombstone counts
		{"b", "b", 2, true},  // bounds are inclusive
		{"c", "c", 0, false}, // no entry on the key
		{"c", "d", 4, true},
		{"e", "", 8, true}, // unbounded above
		{"g", "", 0, false},
		{"d", "d", 3, true}, // the newest version decides, not the oldest
	} {
		var hi []byte
		if tc.hi != "" {
			hi = []byte(tc.hi)
		}
		if got := m.NewerThan([]byte(tc.lo), hi, tc.seq); got != tc.want {
			t.Errorf("NewerThan(%q, %q, %d) = %v, want %v", tc.lo, tc.hi, tc.seq, got, tc.want)
		}
	}
	if New(1).NewerThan([]byte("a"), nil, 0) {
		t.Error("empty memtable reports a newer entry")
	}
}

// TestNewerThanMatchesScan property-checks NewerThan against a linear walk.
func TestNewerThanMatchesScan(t *testing.T) {
	f := func(ks []byte, lo, hi byte, seq uint8, open bool) bool {
		m := New(3)
		for i, k := range ks {
			m.Set(keys.Make([]byte{k % 16}, uint64(i+1), keys.KindSet), nil)
		}
		lo, hi = lo%16, hi%16
		hiKey := []byte{hi}
		if open {
			hiKey = nil
		}
		want := false
		it := m.NewIter()
		for ok := it.First(); ok; ok = it.Next() {
			k := it.Key().UserKey()[0]
			if k >= lo && (open || k <= hi) && it.Key().Seq() > uint64(seq) {
				want = true
			}
		}
		return m.NewerThan([]byte{lo}, hiKey, uint64(seq)) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
