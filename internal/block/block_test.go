package block

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"testing/quick"
)

func buildBlock(t *testing.T, n int) []byte {
	t.Helper()
	b := NewBuilder(4)
	for i := 0; i < n; i++ {
		b.Add([]byte(fmt.Sprintf("key%06d", i)), []byte(fmt.Sprintf("val%06d", i)))
	}
	return b.Finish()
}

func TestBuildAndIterate(t *testing.T) {
	data := buildBlock(t, 100)
	it, err := NewIter(data, bytes.Compare)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for ok := it.First(); ok; ok = it.Next() {
		wantK := fmt.Sprintf("key%06d", i)
		wantV := fmt.Sprintf("val%06d", i)
		if string(it.Key()) != wantK || string(it.Value()) != wantV {
			t.Fatalf("entry %d = %q/%q", i, it.Key(), it.Value())
		}
		i++
	}
	if i != 100 {
		t.Fatalf("iterated %d entries", i)
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
}

func TestSeek(t *testing.T) {
	data := buildBlock(t, 100)
	it, _ := NewIter(data, bytes.Compare)
	for _, i := range []int{0, 1, 15, 16, 17, 50, 99} {
		target := []byte(fmt.Sprintf("key%06d", i))
		if !it.Seek(target) {
			t.Fatalf("Seek(%s) failed", target)
		}
		if !bytes.Equal(it.Key(), target) {
			t.Fatalf("Seek(%s) landed on %s", target, it.Key())
		}
	}
	// Seek between keys lands on the next one.
	if !it.Seek([]byte("key000010x")) {
		t.Fatal("between-keys seek failed")
	}
	if string(it.Key()) != "key000011" {
		t.Fatalf("between-keys seek landed on %s", it.Key())
	}
	// Seek past the end is invalid.
	if it.Seek([]byte("zzz")) {
		t.Fatal("past-end seek succeeded")
	}
	// Seek before the start lands on the first key.
	if !it.Seek([]byte("a")) || string(it.Key()) != "key000000" {
		t.Fatalf("before-start seek landed on %s", it.Key())
	}
}

func TestPrefixCompressionShrinks(t *testing.T) {
	shared := NewBuilder(16)
	for i := 0; i < 100; i++ {
		shared.Add([]byte(fmt.Sprintf("verylongsharedprefix%06d", i)), []byte("v"))
	}
	compressed := len(shared.Finish())
	raw := 100 * (len("verylongsharedprefix000000") + 1 + 3)
	if compressed >= raw {
		t.Fatalf("no compression: %d >= %d", compressed, raw)
	}
}

func TestEmptyValuesAndSingleEntry(t *testing.T) {
	b := NewBuilder(0)
	b.Add([]byte("k"), nil)
	data := b.Finish()
	it, err := NewIter(data, bytes.Compare)
	if err != nil {
		t.Fatal(err)
	}
	if !it.First() || string(it.Key()) != "k" || len(it.Value()) != 0 {
		t.Fatal("single empty-value entry mangled")
	}
	if it.Next() {
		t.Fatal("phantom second entry")
	}
}

func TestCorruptBlocks(t *testing.T) {
	if _, err := NewIter(nil, bytes.Compare); err == nil {
		t.Fatal("nil block accepted")
	}
	if _, err := NewIter([]byte{1, 2, 3}, bytes.Compare); err == nil {
		t.Fatal("tiny block accepted")
	}
	// A restart count larger than the block must be rejected.
	bad := []byte{0, 0, 0, 0, 255, 255, 0, 0}
	if _, err := NewIter(bad, bytes.Compare); err == nil {
		t.Fatal("bogus restart count accepted")
	}
}

func TestNumEntries(t *testing.T) {
	data := buildBlock(t, 37)
	n, err := NumEntries(data, bytes.Compare)
	if err != nil || n != 37 {
		t.Fatalf("NumEntries = %d, %v", n, err)
	}
}

func TestBuilderReset(t *testing.T) {
	b := NewBuilder(4)
	b.Add([]byte("a"), []byte("1"))
	b.Finish()
	b.Reset()
	if !b.Empty() || b.NumEntries() != 0 {
		t.Fatal("Reset did not clear the builder")
	}
	b.Add([]byte("b"), []byte("2"))
	it, err := NewIter(b.Finish(), bytes.Compare)
	if err != nil {
		t.Fatal(err)
	}
	if !it.First() || string(it.Key()) != "b" {
		t.Fatal("reused builder produced wrong block")
	}
}

// TestRoundTripProperty: arbitrary sorted key sets survive the round trip
// and Seek finds exactly the right entries.
func TestRoundTripProperty(t *testing.T) {
	f := func(raw map[string]string) bool {
		if len(raw) == 0 {
			return true
		}
		keys := make([]string, 0, len(raw))
		for k := range raw {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b := NewBuilder(3)
		for _, k := range keys {
			b.Add([]byte(k), []byte(raw[k]))
		}
		it, err := NewIter(b.Finish(), bytes.Compare)
		if err != nil {
			return false
		}
		for _, k := range keys {
			if !it.Seek([]byte(k)) || string(it.Key()) != k || string(it.Value()) != raw[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestIterInitReuse(t *testing.T) {
	a := buildBlock(t, 50)
	b := func() []byte {
		bld := NewBuilder(4)
		for i := 0; i < 30; i++ {
			bld.Add([]byte(fmt.Sprintf("other%04d", i)), []byte(fmt.Sprintf("v%04d", i)))
		}
		return bld.Finish()
	}()

	var it Iter
	if err := it.Init(a, bytes.Compare); err != nil {
		t.Fatal(err)
	}
	n := 0
	for ok := it.First(); ok; ok = it.Next() {
		n++
	}
	if n != 50 || it.Err() != nil {
		t.Fatalf("first block: n=%d err=%v", n, it.Err())
	}

	// Re-Init over a different block must fully replace the state.
	if err := it.Init(b, bytes.Compare); err != nil {
		t.Fatal(err)
	}
	if it.Valid() {
		t.Fatal("valid before positioning")
	}
	if !it.Seek([]byte("other0015")) || string(it.Key()) != "other0015" {
		t.Fatalf("Seek after re-Init: valid=%v key=%q", it.Valid(), it.Key())
	}
	n = 0
	for ok := it.First(); ok; ok = it.Next() {
		n++
	}
	if n != 30 || it.Err() != nil {
		t.Fatalf("second block: n=%d err=%v", n, it.Err())
	}
}

func TestIterInitRejectsCorrupt(t *testing.T) {
	var it Iter
	if err := it.Init(nil, bytes.Compare); err == nil {
		t.Fatal("nil block accepted")
	}
	if err := it.Init([]byte{1, 2, 3}, bytes.Compare); err == nil {
		t.Fatal("tiny block accepted")
	}
	bad := []byte{0, 0, 0, 0, 255, 255, 0, 0}
	if err := it.Init(bad, bytes.Compare); err == nil {
		t.Fatal("bogus restart count accepted")
	}
}

func TestIterReset(t *testing.T) {
	data := buildBlock(t, 10)
	var it Iter
	if err := it.Init(data, bytes.Compare); err != nil {
		t.Fatal(err)
	}
	it.First()
	it.Reset()
	if it.Valid() || it.Err() != nil {
		t.Fatal("Reset did not clear state")
	}
	if err := it.Init(data, bytes.Compare); err != nil {
		t.Fatal(err)
	}
	if !it.First() {
		t.Fatal("iterator unusable after Reset+Init")
	}
}

// TestSeekMatchesLinearScan cross-checks the in-place restart binary search
// against a linear scan for every possible target, including between-key
// and out-of-range probes, across restart intervals.
func TestSeekMatchesLinearScan(t *testing.T) {
	for _, interval := range []int{1, 2, 3, 4, 16, 64} {
		bld := NewBuilder(interval)
		const n = 137
		for i := 0; i < n; i++ {
			bld.Add([]byte(fmt.Sprintf("key%06d", i)), []byte(fmt.Sprintf("val%06d", i)))
		}
		data := bld.Finish()
		it, err := NewIter(data, bytes.Compare)
		if err != nil {
			t.Fatal(err)
		}
		probe := func(target string, wantIdx int) {
			t.Helper()
			ok := it.Seek([]byte(target))
			if it.Err() != nil {
				t.Fatalf("interval %d Seek(%q): %v", interval, target, it.Err())
			}
			if (wantIdx < n) != ok {
				t.Fatalf("interval %d Seek(%q) = %v, want positioned=%v", interval, target, ok, wantIdx < n)
			}
			if ok {
				want := fmt.Sprintf("key%06d", wantIdx)
				if string(it.Key()) != want {
					t.Fatalf("interval %d Seek(%q) → %q, want %q", interval, target, it.Key(), want)
				}
			}
		}
		probe("", 0)
		probe("aaa", 0)
		for i := 0; i < n; i++ {
			probe(fmt.Sprintf("key%06d", i), i)
			probe(fmt.Sprintf("key%06d!", i), i+1)
		}
		probe("zzz", n)
	}
}

// TestIterSeekWarmAllocs locks in the allocation-free seek: once the key
// buffer has grown, Init+Seek on a warm iterator allocates nothing.
func TestIterSeekWarmAllocs(t *testing.T) {
	data := buildBlock(t, 200)
	var it Iter
	if err := it.Init(data, bytes.Compare); err != nil {
		t.Fatal(err)
	}
	target := []byte("key000150")
	it.Seek(target) // grow the key buffer
	allocs := testing.AllocsPerRun(200, func() {
		if err := it.Init(data, bytes.Compare); err != nil {
			t.Fatal(err)
		}
		if !it.Seek(target) {
			t.Fatal("seek failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Init+Seek allocates %.1f objects/op, want 0", allocs)
	}
}
