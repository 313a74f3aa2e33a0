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
	m.Set([]byte("a"), 1, keys.KindSet, []byte("v1"))
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
	m.Set([]byte("k"), 1, keys.KindSet, []byte("v1"))
	m.Set([]byte("k"), 5, keys.KindSet, []byte("v5"))
	m.Set([]byte("k"), 9, keys.KindDelete, nil)
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
		m.Set([]byte(fmt.Sprintf("key%06d", i)), uint64(i+1), keys.KindSet, []byte("v"))
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
		m.Set([]byte(fmt.Sprintf("key%06d", i)), uint64(i+1), keys.KindSet, []byte("v"))
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
	m.Set([]byte("abc"), 1, keys.KindSet, []byte("defgh"))
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
		m.Set([]byte(fmt.Sprintf("key%06d", i)), uint64(i+1), keys.KindSet, []byte("v"))
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
			m.Set([]byte(fmt.Sprintf("key%06d", i)), uint64(i+1), keys.KindSet, []byte("v"))
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
			m.Set([]byte(k), uint64(i+1), kind, v)
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
	m.Set([]byte("b"), 3, keys.KindSet, []byte("v"))
	m.Set([]byte("d"), 5, keys.KindDelete, nil)
	m.Set([]byte("d"), 2, keys.KindSet, []byte("v"))
	m.Set([]byte("f"), 9, keys.KindSet, []byte("v"))
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
			m.Set([]byte{k % 16}, uint64(i+1), keys.KindSet, nil)
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

// TestSetAllocatesNothing pins the arena: an insert copies its key and
// value into chunks the memtable owns, so only the occasional new chunk
// allocates — less than one allocation per insert, amortised.
func TestSetAllocatesNothing(t *testing.T) {
	const n = 4096
	userKeys := make([][]byte, n)
	for i := range userKeys {
		userKeys[i] = []byte(fmt.Sprintf("user%016d", i))
	}
	value := make([]byte, 100)
	for _, order := range []string{"ascending", "random"} {
		m := New(1)
		perm := rand.New(rand.NewSource(3)).Perm(n)
		i := 0
		allocs := testing.AllocsPerRun(n-1, func() {
			k := i
			if order == "random" {
				k = perm[i]
			}
			m.Set(userKeys[k], uint64(i+1), keys.KindSet, value)
			i++
		})
		if allocs != 0 {
			t.Fatalf("%s: %.0f allocations per Set, want 0", order, allocs)
		}
	}
}

// TestSetCopies pins that the memtable keeps copies, not the caller's
// slices: a write batch reuses its buffer once Apply returns.
func TestSetCopies(t *testing.T) {
	m := New(1)
	k, v := []byte("key"), []byte("value")
	m.Set(k, 1, keys.KindSet, v)
	copy(k, "xxx")
	copy(v, "XXXXX")
	if got, _, ok := m.Get([]byte("key"), keys.MaxSeq); !ok || string(got) != "value" {
		t.Fatalf("Get = %q ok=%v after the caller reused its buffers", got, ok)
	}
}

// TestSkiplistModel checks the skiplist against a sorted reference under
// ascending, descending, random and clustered insert orders (the splice
// an ascending insert starts from must never link a node out of order),
// while readers iterate and look up concurrently with the single writer.
// Under -race it also checks that readers and the writer share nothing
// without the lock.
func TestSkiplistModel(t *testing.T) {
	const n = 3000
	orders := map[string]func(r *rand.Rand) []int{
		"ascending":  func(*rand.Rand) []int { return seqOrder(n, false) },
		"descending": func(*rand.Rand) []int { return seqOrder(n, true) },
		"random":     func(r *rand.Rand) []int { return r.Perm(n) },
		// Ascending runs that restart lower: the splice fits inside a run
		// and must be abandoned at each restart.
		"runs": func(r *rand.Rand) []int {
			out := make([]int, 0, n)
			for _, start := range r.Perm(n / 100) {
				for j := 0; j < 100; j++ {
					out = append(out, start*100+j)
				}
			}
			return out
		},
	}
	for name, order := range orders {
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(9))
			m := New(5)
			ks := order(r)
			var done sync.WaitGroup
			stop := make(chan struct{})
			for g := 0; g < 3; g++ {
				done.Add(1)
				go func() {
					defer done.Done()
					for q := 0; ; q++ {
						select {
						case <-stop:
							return
						default:
						}
						var prev keys.InternalKey
						it := m.NewIter()
						for ok := it.First(); ok; ok = it.Next() {
							if prev != nil && keys.Compare(prev, it.Key()) >= 0 {
								t.Errorf("iteration out of order: %q then %q", prev, it.Key())
								return
							}
							prev = it.Key()
						}
						m.Get([]byte(fmt.Sprintf("k%06d", q%n)), keys.MaxSeq)
					}
				}()
			}
			// Every key twice, the second version newer, so the reference
			// orders versions of one user key as well.
			var ref []string
			for pass := 0; pass < 2; pass++ {
				for i, k := range ks {
					seq := uint64(pass*n + i + 1)
					uk := fmt.Sprintf("k%06d", k)
					m.Set([]byte(uk), seq, keys.KindSet, []byte(fmt.Sprint(seq)))
					ref = append(ref, string(keys.Make([]byte(uk), seq, keys.KindSet)))
				}
			}
			close(stop)
			done.Wait()
			sort.Slice(ref, func(i, j int) bool {
				return keys.Compare(keys.InternalKey(ref[i]), keys.InternalKey(ref[j])) < 0
			})
			it := m.NewIter()
			i := 0
			for ok := it.First(); ok; ok = it.Next() {
				if i >= len(ref) || string(it.Key()) != ref[i] {
					t.Fatalf("entry %d = %q, want %q", i, it.Key(), ref[i])
				}
				if want := fmt.Sprint(it.Key().Seq()); string(it.Value()) != want {
					t.Fatalf("entry %d value %q, want %q", i, it.Value(), want)
				}
				i++
			}
			if i != len(ref) || m.Count() != len(ref) {
				t.Fatalf("iterated %d, count %d, want %d", i, m.Count(), len(ref))
			}
			for _, k := range ks {
				uk := []byte(fmt.Sprintf("k%06d", k))
				if v, _, ok := m.Get(uk, n); !ok || len(v) == 0 {
					t.Fatalf("snapshot %d lost %s", n, uk)
				}
			}
		})
	}
}

func seqOrder(n int, reverse bool) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
		if reverse {
			out[i] = n - 1 - i
		}
	}
	return out
}
