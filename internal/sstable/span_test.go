package sstable

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"

	"adcache/internal/keys"
	"adcache/internal/vfs"
)

// countingMem returns a counting file system over a fresh MemFS (the ReadAt
// path: MemFS files serve no no-copy views).
func countingMem() *vfs.CountingFS { return vfs.NewCounting(vfs.NewMem()) }

// TestSpanSizedFromRemainingLimit pins the sizing rule: a miss reads the
// entries still wanted over the table's mean entries per block, rounded up,
// plus one, in one ReadAt, and that is enough for the scan; consumed blocks
// count as misses, prefetched blocks that are never reached do not.
func TestSpanSizedFromRemainingLimit(t *testing.T) {
	fs := countingMem()
	buildTable(t, fs, "t.sst", 4000, WriterOptions{BlockSize: 512})
	r := openTable(t, fs, "t.sst", ReaderOptions{})
	perBlock := float64(r.NumEntries()) / float64(len(r.index))

	for _, limit := range []int{1, 16, 64} {
		stats := &ReadStats{ScanRemaining: int64(limit)}
		it, _ := r.NewIter(stats)
		before := fs.Stats.Snapshot()
		n := 0
		for ok := it.Seek(keys.MakeSearch([]byte("key001000"), keys.MaxSeq)); ok; ok = it.Next() {
			if n++; n == limit {
				break
			}
			stats.ScanRemaining = int64(limit - n)
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		d := fs.Stats.Snapshot().Sub(before)
		if d.ReadOps != 1 {
			t.Errorf("limit %d: %d ReadAt calls, want 1", limit, d.ReadOps)
		}
		want := int64(math.Ceil(float64(limit)/perBlock)) + 1
		if stats.BlockMisses > want {
			t.Errorf("limit %d: %d blocks consumed, more than the %d the span rule fetches", limit, stats.BlockMisses, want)
		}
		if maxBytes := want * 600; d.ReadBytes > maxBytes {
			t.Errorf("limit %d: read %d bytes, want <= %d", limit, d.ReadBytes, maxBytes)
		}
	}
}

// TestSpanUnknownLengthDoubles: an iterator that does not know how much it
// will read (a streamed iterator) grows its reads geometrically, so a full
// walk costs far fewer device calls than blocks.
func TestSpanUnknownLengthDoubles(t *testing.T) {
	fs := countingMem()
	buildTable(t, fs, "t.sst", 4000, WriterOptions{BlockSize: 512})
	r := openTable(t, fs, "t.sst", ReaderOptions{})
	var stats ReadStats
	it, _ := r.NewIter(&stats)
	before := fs.Stats.Snapshot()
	n := 0
	for ok := it.First(); ok; ok = it.Next() {
		n++
	}
	if n != 4000 || it.Err() != nil {
		t.Fatalf("walked %d entries, err=%v", n, it.Err())
	}
	calls := fs.Stats.Snapshot().Sub(before).ReadOps
	if int(stats.BlockMisses) != len(r.index) {
		t.Fatalf("consumed %d blocks of %d", stats.BlockMisses, len(r.index))
	}
	// 1+2+4+... up to the byte cap, then cap-sized reads.
	if maxCalls := int64(len(r.index))*600/maxScanSpan + 8; calls > maxCalls {
		t.Fatalf("full walk of %d blocks took %d ReadAt calls, want <= %d", len(r.index), calls, maxCalls)
	}
}

// TestCompactionIterReadsInWindows: a cache-bypassing iterator reads the
// table in fixed sequential windows.
func TestCompactionIterReadsInWindows(t *testing.T) {
	fs := countingMem()
	meta := buildTable(t, fs, "t.sst", 20000, WriterOptions{})
	r := openTable(t, fs, "t.sst", ReaderOptions{Cache: newFakeCache()})
	it, _ := r.NewIterNoCache()
	before := fs.Stats.Snapshot()
	n := 0
	for ok := it.First(); ok; ok = it.Next() {
		n++
	}
	if n != 20000 || it.Err() != nil {
		t.Fatalf("walked %d entries, err=%v", n, it.Err())
	}
	calls := fs.Stats.Snapshot().Sub(before).ReadOps
	if maxCalls := int64(meta.Size)/CompactionReadahead + 1; calls > maxCalls {
		t.Fatalf("walk of a %d-byte table took %d reads, want <= %d", meta.Size, calls, maxCalls)
	}
}

// TestSpanStopsAtUpperBound: a bounded iterator does not prefetch blocks past
// its bound however large its limit.
func TestSpanStopsAtUpperBound(t *testing.T) {
	fs := countingMem()
	buildTable(t, fs, "t.sst", 4000, WriterOptions{BlockSize: 512})
	r := openTable(t, fs, "t.sst", ReaderOptions{})
	stats := &ReadStats{ScanRemaining: 1 << 40}
	it, _ := r.NewIter(stats)
	it.SetUpperBound([]byte("key001005"))
	before := fs.Stats.Snapshot()
	n := 0
	for ok := it.Seek(keys.MakeSearch([]byte("key001000"), keys.MaxSeq)); ok; ok = it.Next() {
		n++
	}
	if n != 5 || it.Err() != nil {
		t.Fatalf("bounded walk returned %d entries, err=%v", n, it.Err())
	}
	d := fs.Stats.Snapshot().Sub(before)
	if d.ReadOps > 2 || d.ReadBytes > 3*600 {
		t.Fatalf("5-key bounded walk cost %d reads / %d bytes; the span ran past the bound", d.ReadOps, d.ReadBytes)
	}
}

// TestCorruptPrefetchedBlockSurfaces: a corrupt byte in a block that was
// prefetched in a span — not the block the read was issued for — must stop
// the scan with an error when the iterator reaches it, never truncate it
// silently, and must not disturb the blocks before it.
func TestCorruptPrefetchedBlockSurfaces(t *testing.T) {
	for _, comp := range []Compression{CompressionNone, CompressionFlate} {
		t.Run(comp.String(), func(t *testing.T) {
			fs := vfs.NewMem()
			buildTable(t, fs, "t.sst", 2000, WriterOptions{BlockSize: 512, Compression: comp})
			r := openTable(t, fs, "t.sst", ReaderOptions{})
			if r.nc != nil || len(r.index) < 8 {
				t.Fatalf("need the ReadAt path and >= 8 blocks (nc=%v, blocks=%d)", r.nc != nil, len(r.index))
			}
			// One payload byte of the third block: inside the first span of
			// a 2000-entry scan from the start, not first in it.
			h := r.index[2].h
			f, _ := fs.Open("t.sst")
			var b [1]byte
			if _, err := f.ReadAt(b[:], int64(h.Offset+h.Length/2)); err != nil {
				t.Fatal(err)
			}
			b[0] ^= 0x40
			if _, err := f.WriteAt(b[:], int64(h.Offset+h.Length/2)); err != nil {
				t.Fatal(err)
			}

			stats := &ReadStats{ScanRemaining: 2000}
			it, _ := r.NewIter(stats)
			n := 0
			var last []byte
			for ok := it.First(); ok; ok = it.Next() {
				n++
				last = append(last[:0], it.Key()...)
			}
			if !errors.Is(it.Err(), ErrCorrupt) {
				t.Fatalf("scan over a corrupt prefetched block ended after %d entries with err=%v", n, it.Err())
			}
			if stats.BlockMisses != 2 {
				t.Fatalf("consumed %d blocks before the corrupt one, want 2", stats.BlockMisses)
			}
			if !bytes.Equal(keys.InternalKey(last), r.index[1].sep) {
				t.Fatalf("scan stopped at %q, want the last key of block 1 %q", last, r.index[1].sep)
			}
		})
	}
}

// retainingCache keeps every inserted image, as a real cache does.
type retainingCache struct {
	fakeCache
	imgs [][]byte
}

func (c *retainingCache) Insert(fileNum, off uint64, data []byte, logical int, scan bool) {
	c.fakeCache.Insert(fileNum, off, data, logical, scan)
	c.imgs = append(c.imgs, data)
}

// TestCacheNeverPinsSpan: a block admitted from a coalesced span is a copy of
// exactly the block — the cache charges one block, so it must not retain the
// span — it survives the iterator reusing its buffer, and the scan fill
// budget still counts inserts only.
func TestCacheNeverPinsSpan(t *testing.T) {
	fs := vfs.NewMem()
	buildTable(t, fs, "t.sst", 2000, WriterOptions{BlockSize: 512})
	cache := &retainingCache{fakeCache: *newFakeCache()}
	r := openTable(t, fs, "t.sst", ReaderOptions{Cache: cache, FileNum: 3})

	stats := &ReadStats{ScanRemaining: 2000, LimitScanFill: true, ScanFillBudget: 5}
	it, _ := r.NewIter(stats)
	for ok := it.First(); ok; ok = it.Next() {
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if cache.inserts != 5 || cache.scanInserts != 5 {
		t.Fatalf("budget 5 admitted %d blocks (%d tagged scan)", cache.inserts, cache.scanInserts)
	}
	for i, img := range cache.imgs {
		h := r.index[i].h
		// The copy's capacity is its length rounded up to an allocation
		// size class, never a span's worth.
		if len(img) != int(h.Length)+1 || cap(img) >= 2*len(img) {
			t.Fatalf("cached image %d: len %d cap %d, want a copy of exactly %d bytes: the cache pins the span", i, len(img), cap(img), h.Length+1)
		}
		// The iterator has long since overwritten its span; the cached copy
		// must still be the block.
		if _, err := checkBlock(appendTrailer(t, fs, img, h), h); err != nil {
			t.Fatalf("cached image %d no longer matches its block: %v", i, err)
		}
	}

	// A second pass is served from the cache for the admitted blocks and
	// returns the same entries.
	stats2 := &ReadStats{ScanRemaining: 2000}
	it2, _ := r.NewIter(stats2)
	n := 0
	for ok := it2.First(); ok; ok = it2.Next() {
		if want := fmt.Sprintf("key%06d", n); string(it2.Key().UserKey()) != want {
			t.Fatalf("entry %d: key %q, want %q", n, it2.Key().UserKey(), want)
		}
		n++
	}
	if n != 2000 || it2.Err() != nil || stats2.BlockHits != 5 {
		t.Fatalf("second pass: %d entries, err=%v, %d cache hits (want 2000, nil, 5)", n, it2.Err(), stats2.BlockHits)
	}
}

// appendTrailer rebuilds a block's on-disk form from its physical image and
// the checksum stored in the file.
func appendTrailer(t *testing.T, fs vfs.FS, img []byte, h Handle) []byte {
	t.Helper()
	f, err := fs.Open("t.sst")
	if err != nil {
		t.Fatal(err)
	}
	crc := make([]byte, 4)
	if _, err := f.ReadAt(crc, int64(h.Offset+h.Length+1)); err != nil {
		t.Fatal(err)
	}
	return append(bytes.Clone(img), crc...)
}

// TestIterWarmSpanAllocs: on the ReadAt path without a cache, re-initialising
// one Iter and scanning through coalesced reads allocates nothing once its
// span buffer has grown — the buffer is the iterator's, reused across Init.
func TestIterWarmSpanAllocs(t *testing.T) {
	fs := vfs.NewMem()
	buildTable(t, fs, "t.sst", 2000, WriterOptions{})
	r := openTable(t, fs, "t.sst", ReaderOptions{})
	var it Iter
	var stats ReadStats
	from := keys.MakeSearch([]byte("key000700"), keys.MaxSeq)
	scan := func() {
		stats.Reset()
		stats.ScanRemaining = 64
		it.Init(r, &stats)
		n := 0
		for ok := it.Seek(from); ok && n < 64; ok = it.Next() {
			n++
			stats.ScanRemaining = int64(64 - n)
		}
		if n != 64 || it.Err() != nil || stats.BlockMisses == 0 {
			t.Fatalf("scanned %d, err=%v, misses=%d", n, it.Err(), stats.BlockMisses)
		}
	}
	scan() // grow the span and key buffers
	if allocs := testing.AllocsPerRun(50, scan); allocs != 0 {
		t.Fatalf("warm coalesced scan allocates %.1f objects/op, want 0", allocs)
	}
}
