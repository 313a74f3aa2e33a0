package sstable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"testing"

	"adcache/internal/block"
	"adcache/internal/keys"
	"adcache/internal/vfs"
)

// oldFindBlock reimplements the pre-parsed-index lookup path — an index
// block iterator seeked per Get — as the reference the flat parsed index
// must match byte-for-byte.
type oldIndexPath struct {
	indexRaw []byte
}

func newOldIndexPath(t *testing.T, fs vfs.FS, name string) *oldIndexPath {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	var footer [FooterLen]byte
	if _, err := f.ReadAt(footer[:], size-FooterLen); err != nil {
		t.Fatal(err)
	}
	h := decodeHandle(footer[16:])
	buf := make([]byte, h.Length)
	if _, err := f.ReadAt(buf, int64(h.Offset)); err != nil {
		t.Fatal(err)
	}
	return &oldIndexPath{indexRaw: buf}
}

// findBlock is the old per-Get index seek: block iterator over the raw
// index block, Seek, decode the handle from the entry value.
func (o *oldIndexPath) findBlock(t *testing.T, ikey keys.InternalKey) (Handle, bool) {
	t.Helper()
	it, err := block.NewIter(o.indexRaw, icmp)
	if err != nil {
		t.Fatal(err)
	}
	if !it.Seek(ikey) {
		if it.Err() != nil {
			t.Fatal(it.Err())
		}
		return Handle{}, false
	}
	if len(it.Value()) != 16 {
		t.Fatal("bad index entry")
	}
	return decodeHandle(it.Value()), true
}

// oldGet is the pre-refactor Reader.Get: old index seek, fresh block
// iterator per lookup.
func (o *oldIndexPath) oldGet(t *testing.T, r *Reader, userKey []byte, seq uint64) (value []byte, deleted, ok bool) {
	t.Helper()
	if r.filter != nil && !r.filter.MayContain(userKey) {
		return nil, false, false
	}
	search := keys.MakeSearch(userKey, seq)
	h, found := o.findBlock(t, search)
	if !found {
		return nil, false, false
	}
	data, err := r.readBlock(h, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	it, err := block.NewIter(data, icmp)
	if err != nil {
		t.Fatal(err)
	}
	if !it.Seek(search) {
		if it.Err() != nil {
			t.Fatal(it.Err())
		}
		return nil, false, false
	}
	ik := keys.InternalKey(it.Key())
	if string(ik.UserKey()) != string(userKey) {
		return nil, false, false
	}
	if ik.Kind() == keys.KindDelete {
		return nil, true, true
	}
	return append([]byte(nil), it.Value()...), false, true
}

// TestParsedIndexGetEquivalence checks that the parsed-index Reader.Get
// returns byte-identical results to the old index-iterator path across
// restart-interval and block-size edge cases, for present and absent keys.
func TestParsedIndexGetEquivalence(t *testing.T) {
	for _, tc := range []struct {
		restart, blockSize int
	}{
		{1, 64}, {1, 4096}, {2, 128}, {3, 256}, {16, 512}, {16, 4096}, {64, 1024},
	} {
		name := fmt.Sprintf("restart=%d/block=%d", tc.restart, tc.blockSize)
		t.Run(name, func(t *testing.T) {
			fs := vfs.NewMem()
			const n = 700
			buildTable(t, fs, "t.sst", n, WriterOptions{
				restartInterval: tc.restart, BlockSize: tc.blockSize, BitsPerKey: 10,
			})
			r := openTable(t, fs, "t.sst", ReaderOptions{})
			old := newOldIndexPath(t, fs, "t.sst")

			check := func(userKey []byte, seq uint64) {
				t.Helper()
				wantV, wantDel, wantOK := old.oldGet(t, r, userKey, seq)
				gotV, gotDel, gotOK, err := r.Get(userKey, seq, nil)
				if err != nil {
					t.Fatalf("Get(%q): %v", userKey, err)
				}
				if gotOK != wantOK || gotDel != wantDel || !bytes.Equal(gotV, wantV) {
					t.Fatalf("Get(%q,%d) = (%q,%v,%v), old path = (%q,%v,%v)",
						userKey, seq, gotV, gotDel, gotOK, wantV, wantDel, wantOK)
				}
			}
			for i := 0; i < n; i++ {
				check([]byte(fmt.Sprintf("key%06d", i)), keys.MaxSeq)
			}
			// Absent keys around, between and past every table key.
			check([]byte("aaa"), keys.MaxSeq)
			check([]byte("key"), keys.MaxSeq)
			for i := 0; i < n; i += 37 {
				check([]byte(fmt.Sprintf("key%06d!", i)), keys.MaxSeq)
			}
			check([]byte("zzz"), keys.MaxSeq)
			// Sequence-number visibility: entries are written with seq=i+1.
			check([]byte("key000050"), 10)
			check([]byte("key000050"), 51)
			check([]byte("key000050"), 52)
		})
	}
}

// TestParsedIndexIterEquivalence checks Iter against the old path: a full
// scan must enumerate identical entries, and Seek must land on identical
// positions for every key and between-key probe.
func TestParsedIndexIterEquivalence(t *testing.T) {
	for _, tc := range []struct {
		restart, blockSize int
	}{
		{1, 64}, {2, 128}, {16, 512}, {64, 4096},
	} {
		name := fmt.Sprintf("restart=%d/block=%d", tc.restart, tc.blockSize)
		t.Run(name, func(t *testing.T) {
			fs := vfs.NewMem()
			const n = 400
			buildTable(t, fs, "t.sst", n, WriterOptions{
				restartInterval: tc.restart, BlockSize: tc.blockSize,
			})
			r := openTable(t, fs, "t.sst", ReaderOptions{})

			// Full scan must yield every entry in written order.
			it, err := r.NewIter(nil)
			if err != nil {
				t.Fatal(err)
			}
			i := 0
			for ok := it.First(); ok; ok = it.Next() {
				wantK := fmt.Sprintf("key%06d", i)
				wantV := fmt.Sprintf("val%06d", i)
				if string(it.Key().UserKey()) != wantK || string(it.Value()) != wantV {
					t.Fatalf("entry %d = %q=%q, want %q=%q",
						i, it.Key().UserKey(), it.Value(), wantK, wantV)
				}
				i++
			}
			if err := it.Err(); err != nil {
				t.Fatal(err)
			}
			if i != n {
				t.Fatalf("scanned %d entries, want %d", i, n)
			}

			// Seeks: each present key, between-key probes, and past-the-end.
			for j := 0; j < n+3; j++ {
				var target keys.InternalKey
				switch {
				case j < n:
					target = keys.MakeSearch([]byte(fmt.Sprintf("key%06d", j)), keys.MaxSeq)
				case j == n:
					target = keys.MakeSearch([]byte("key000100!"), keys.MaxSeq)
				case j == n+1:
					target = keys.MakeSearch([]byte("aaa"), keys.MaxSeq)
				default:
					target = keys.MakeSearch([]byte("zzz"), keys.MaxSeq)
				}
				ok := it.Seek(target)
				wantIdx := seekIndex(target, n)
				if (wantIdx < n) != ok {
					t.Fatalf("Seek(%q) = %v, want positioned=%v", target, ok, wantIdx < n)
				}
				if ok {
					wantK := fmt.Sprintf("key%06d", wantIdx)
					if string(it.Key().UserKey()) != wantK {
						t.Fatalf("Seek(%q) landed on %q, want %q", target, it.Key().UserKey(), wantK)
					}
				}
			}
		})
	}
}

// seekIndex computes the expected landing index for a seek target in a
// table of keys key%06d (0..n-1).
func seekIndex(target keys.InternalKey, n int) int {
	user := string(target.UserKey())
	for i := 0; i < n; i++ {
		if fmt.Sprintf("key%06d", i) >= user {
			return i
		}
	}
	return n
}

// corruptBlockInPlace flips entry bytes of the data block at handle h and
// recomputes the trailing checksum, producing a block that passes the CRC
// but fails structural decoding — the case Iter.Seek used to swallow.
func corruptBlockInPlace(t *testing.T, fs vfs.FS, name string, h Handle) {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, h.Length)
	if _, err := f.ReadAt(buf, int64(h.Offset)); err != nil {
		t.Fatal(err)
	}
	// 0xFF... in the leading varints makes the first entry decode to an
	// impossible shared-prefix length.
	for i := 0; i < 8 && i < len(buf); i++ {
		buf[i] = 0xFF
	}
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], crc32.Checksum(buf, crcTable))
	if _, err := f.WriteAt(buf, int64(h.Offset)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(crcBuf[:], int64(h.Offset+h.Length)); err != nil {
		t.Fatal(err)
	}
}

// TestIterSeekLatchesCorruptBlock is the regression test for the swallowed
// corruption error: when a data-block seek fails because the block is
// corrupt (not because the target is past the block), the iterator must
// surface the error instead of silently skipping to the next block.
func TestIterSeekLatchesCorruptBlock(t *testing.T) {
	fs := vfs.NewMem()
	buildTable(t, fs, "t.sst", 2000, WriterOptions{BlockSize: 256})
	r := openTable(t, fs, "t.sst", ReaderOptions{})
	if len(r.index) < 3 {
		t.Fatalf("need ≥3 data blocks, got %d", len(r.index))
	}
	corruptBlockInPlace(t, fs, "t.sst", r.index[1].h)

	// Seek to a key inside the corrupted second block.
	target := keys.InternalKey(append([]byte(nil), r.index[1].sep...))
	it, err := r.NewIter(nil)
	if err != nil {
		t.Fatal(err)
	}
	if it.Seek(target) {
		t.Fatalf("Seek landed on %q inside a corrupt block", it.Key())
	}
	if it.Err() == nil {
		t.Fatal("corrupt data block silently skipped: Err() == nil after failed Seek")
	}

	// A forward scan crossing into the corrupt block must also stop with
	// the error latched rather than skipping the block's entries.
	it2, err := r.NewIter(nil)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for ok := it2.First(); ok; ok = it2.Next() {
		n++
	}
	if it2.Err() == nil {
		t.Fatal("scan crossed a corrupt block without surfacing an error")
	}
}

// TestReaderGetWarmAllocs locks in the zero-allocation read path: with a
// warm block cache and a reused ReadStats, a point lookup allocates only
// the returned value copy, and a Bloom-negative lookup allocates nothing.
// These paths use no sync.Pool, so the bounds hold under -race too.
func TestReaderGetWarmAllocs(t *testing.T) {
	fs := vfs.NewMem()
	buildTable(t, fs, "t.sst", 2000, WriterOptions{BitsPerKey: 10})
	cache := newFakeCache()
	r := openTable(t, fs, "t.sst", ReaderOptions{Cache: cache, FileNum: 1})
	stats := &ReadStats{}
	key := []byte("key000777")
	// Warm: fills the cache and grows the scratch buffers.
	if _, _, ok, err := r.Get(key, keys.MaxSeq, stats); err != nil || !ok {
		t.Fatalf("warmup Get: ok=%v err=%v", ok, err)
	}

	allocs := testing.AllocsPerRun(200, func() {
		stats.Reset()
		if _, _, ok, err := r.Get(key, keys.MaxSeq, stats); err != nil || !ok {
			t.Fatalf("Get: ok=%v err=%v", ok, err)
		}
	})
	if allocs > 1 {
		t.Fatalf("cache-hit Get allocates %.1f objects/op, want ≤ 1 (the value copy)", allocs)
	}

	absent := []byte("nope000001")
	allocs = testing.AllocsPerRun(200, func() {
		stats.Reset()
		if _, _, ok, _ := r.Get(absent, keys.MaxSeq, stats); ok {
			t.Fatal("phantom key")
		}
	})
	if allocs != 0 {
		t.Fatalf("bloom-negative Get allocates %.1f objects/op, want 0", allocs)
	}
}

// TestIterWarmScanAllocs: re-initialising one Iter over a warm cache and
// scanning allocates nothing once its block-key buffer has grown.
func TestIterWarmScanAllocs(t *testing.T) {
	fs := vfs.NewMem()
	buildTable(t, fs, "t.sst", 2000, WriterOptions{BlockSize: 1024})
	cache := newFakeCache()
	r := openTable(t, fs, "t.sst", ReaderOptions{Cache: cache, FileNum: 1})
	var it Iter
	scan := func() {
		it.Init(r, nil)
		n := 0
		for ok := it.First(); ok; ok = it.Next() {
			n++
		}
		if n != 2000 || it.Err() != nil {
			t.Fatalf("scanned %d, err=%v", n, it.Err())
		}
	}
	scan() // warm cache + buffers
	allocs := testing.AllocsPerRun(20, scan)
	if allocs != 0 {
		t.Fatalf("warm full scan allocates %.1f objects/op, want 0", allocs)
	}
}
