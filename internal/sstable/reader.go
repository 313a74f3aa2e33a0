package sstable

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"

	"adcache/internal/block"
	"adcache/internal/bloom"
	"adcache/internal/keys"
	"adcache/internal/vfs"
)

// BlockCache is the hook through which block reads are cached. The engine's
// block cache implements it; how many blocks a scan may insert is limited
// per operation through ReadStats (LimitScanFill, ScanFillBudget), which the
// engine sets from the strategy's ScanBlockFillQuota. Implementations must be
// safe for concurrent use.
//
// The cache holds the block's *physical image* — compressed payload plus the
// compression-type byte, exactly as stored on disk minus the checksum — so
// its byte budget charges real resident memory, not the inflated logical
// view. The reader decodes images after Get; for uncompressed blocks the
// decode is a zero-copy slice.
type BlockCache interface {
	// Get returns the cached physical block image for (fileNum, offset),
	// if present.
	Get(fileNum, offset uint64) ([]byte, bool)
	// Insert offers a physical block image for caching; the cache may
	// decline. logical is the decoded size of the block in bytes (equal to
	// len(data) for uncompressed blocks), letting caches report both
	// physical and logical occupancy.
	Insert(fileNum, offset uint64, data []byte, logical int)
	// Fits reports whether Insert would keep a block image of size bytes
	// right now. The reader does not materialise a copy of its own for a
	// block the cache would refuse.
	Fits(size int) bool
	// Remove drops the image cached for (fileNum, offset), if any. A
	// reader whose images alias its file's mapping removes them when it
	// closes (see Reader.Close).
	Remove(fileNum, offset uint64)
}

// ReadStats counts the cache activity of one operation and carries its
// scan-fill budget and scratch buffers. It belongs to one operation at a
// time and is not synchronised; the engine pools and Resets them.
type ReadStats struct {
	// BlockHits counts block reads served from the cache.
	BlockHits int64
	// BlockMisses counts block reads that went to the file.
	BlockMisses int64
	// FilterNegatives counts point lookups rejected by the Bloom filter.
	FilterNegatives int64
	// LimitScanFill enables the per-operation block-fill budget below.
	LimitScanFill bool
	// ScanFillBudget is decremented per scan-path cache insert once
	// LimitScanFill is set; at zero, further scan fills are suppressed.
	// ReadStats is per-operation and accessed from one goroutine, so no
	// synchronisation is needed.
	ScanFillBudget int64
	// ScanRemaining is the number of entries the operation still wants, kept
	// current by the scan loop; table iterators size their coalesced reads
	// from it. Zero means unknown.
	ScanRemaining int64

	// Scratch state reused across operations when the same ReadStats is
	// passed to successive reads (the engine pools them): the seek-key
	// buffer and the data-block iterator keep their backing storage, making
	// warm point lookups allocation-free in the block/sstable layers.
	seekBuf   []byte
	blockIter block.Iter
	// blockBuf is where a point lookup reads a block no cache will keep.
	blockBuf []byte
}

// Reset clears the counters and flags for a new operation while retaining
// the scratch buffers, so pooled ReadStats stay allocation-free.
func (s *ReadStats) Reset() {
	s.BlockHits = 0
	s.BlockMisses = 0
	s.FilterNegatives = 0
	s.LimitScanFill = false
	s.ScanFillBudget = 0
	s.ScanRemaining = 0
	s.blockIter.Reset()
}

// ReaderOptions configures a table reader.
type ReaderOptions struct {
	// Cache, if non-nil, serves and receives data blocks.
	Cache BlockCache
	// FileNum identifies this file in cache keys.
	FileNum uint64
}

// indexEntry is one parsed index-block entry: the last internal key of a
// data block and the block's location. The separator aliases a buffer pinned
// for the Reader's lifetime.
type indexEntry struct {
	sep keys.InternalKey
	h   Handle
}

// Reader provides random access to a finished sstable.
type Reader struct {
	f    vfs.File
	opts ReaderOptions
	// nc, when non-nil, serves block reads as zero-copy pinned views (an
	// mmap-style capability probed once at open, so the fallback decision
	// is immutable and race-free). Block images handed to the cache then
	// alias mapped file pages rather than heap copies.
	nc vfs.NoCopyReaderAt
	// index is the index block parsed once at open into a flat sorted
	// slice, pinned for the Reader's lifetime. Point lookups binary-search
	// it directly and table iterators walk it by position, so no per-read
	// index-block iterator is ever constructed.
	index   []indexEntry
	filter  bloom.Filter
	entries uint64
	size    int64
}

// NewReader opens the table in f.
func NewReader(f vfs.File, opts ReaderOptions) (*Reader, error) {
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	if size < FooterLen {
		return nil, errCorruptf("file too small (%d bytes)", size)
	}
	var nc vfs.NoCopyReaderAt
	var footer []byte
	if cap, ok := f.(vfs.NoCopyReaderAt); ok {
		// Probe once: a file that can serve the footer as a pinned view can
		// serve every block (mapping failures surface here, not mid-read).
		// The probe's view is the footer.
		if view, err := cap.ReadAtNoCopy(size-FooterLen, FooterLen); err == nil {
			nc, footer = cap, view
		}
	}
	if footer == nil {
		footer = make([]byte, FooterLen)
		if _, err := f.ReadAt(footer, size-FooterLen); err != nil {
			return nil, err
		}
	}
	if binary.LittleEndian.Uint64(footer[40:]) != Magic {
		return nil, errCorruptf("bad magic")
	}
	r := &Reader{f: f, opts: opts, nc: nc, size: size}
	r.entries = binary.LittleEndian.Uint64(footer[32:])
	if err := r.readMeta(decodeHandle(footer), decodeHandle(footer[16:])); err != nil {
		return nil, err
	}
	return r, nil
}

// readMeta reads the filter and index blocks named by the footer, which
// stay pinned in memory for the reader's lifetime (as RocksDB does with its
// index/filter partitions by default). The writer lays them out back to
// back ahead of the footer, so one read from the first of them up to the
// footer fetches both; each is checksummed in place. A handle outside that
// span is corruption.
func (r *Reader) readMeta(filterH, indexH Handle) error {
	end := uint64(r.size - FooterLen)
	start := indexH.Offset
	if filterH.Length > 0 {
		start = min(start, filterH.Offset)
	}
	handles := []Handle{indexH}
	if filterH.Length > 0 {
		handles = append(handles, filterH)
	}
	for _, h := range handles {
		if h.Offset > end || end-h.Offset < TrailerLen || h.Length > end-h.Offset-TrailerLen {
			return errCorruptf("block handle %d+%d past the metadata of a %d-byte file", h.Offset, h.Length, r.size)
		}
	}
	var span []byte
	if r.nc != nil {
		view, err := r.nc.ReadAtNoCopy(int64(start), int64(end-start))
		if err != nil {
			return err
		}
		span = view
	} else {
		span = make([]byte, end-start)
		if _, err := r.f.ReadAt(span, int64(start)); err != nil {
			return err
		}
	}
	block := func(h Handle) ([]byte, error) {
		img, err := checkBlock(span[h.Offset-start:][:h.Length+TrailerLen], h)
		if err != nil {
			return nil, err
		}
		return decodeBlock(img)
	}
	indexRaw, err := block(indexH)
	if err != nil {
		return err
	}
	if r.index, err = parseIndex(indexRaw); err != nil {
		return err
	}
	if filterH.Length > 0 {
		fb, err := block(filterH)
		if err != nil {
			return err
		}
		if r.nc == nil {
			// The filter is kept for the reader's life; on the heap, a
			// copy of its own lets the rest of the span go.
			fb = bytes.Clone(fb)
		}
		r.filter = bloom.Filter(fb)
	}
	return nil
}

// Close releases the table's file, and with it any mapping of the file. A
// reader that served no-copy views first removes its data blocks from the
// cache: their images alias the mapping, so none may outlive it. Images
// read into heap buffers stay, as they stay after the file is deleted; the
// cache ages them out. No read may use r, or a block it returned, after
// Close.
func (r *Reader) Close() error {
	if r.nc != nil && r.opts.Cache != nil {
		for i := range r.index {
			r.opts.Cache.Remove(r.opts.FileNum, r.index[i].h.Offset)
		}
	}
	return r.f.Close()
}

// NumEntries reports the entry count recorded in the footer.
func (r *Reader) NumEntries() uint64 { return r.entries }

// Size reports the file size in bytes.
func (r *Reader) Size() int64 { return r.size }

// readBlockPhysical reads one block's physical image — payload plus the
// compression-type byte, checksum verified and stripped — directly from the
// file. When the file supports pinned no-copy views (mmap on OSFS) the image
// aliases mapped pages and the read allocates nothing; otherwise it is one
// heap buffer and one ReadAt, as before.
//
// With scratch, a read that needs a buffer reuses *scratch, growing it as
// needed, instead of allocating one the caller could hand to the cache.
func (r *Reader) readBlockPhysical(h Handle, scratch *[]byte) ([]byte, error) {
	if size := uint64(r.size); h.Length > size || h.Offset > size-h.Length || size-h.Length-h.Offset < TrailerLen {
		return nil, errCorruptf("block handle %d+%d past the end of a %d-byte file", h.Offset, h.Length, r.size)
	}
	n := int64(h.Length) + TrailerLen
	var buf []byte
	if r.nc != nil {
		view, err := r.nc.ReadAtNoCopy(int64(h.Offset), n)
		if err != nil {
			return nil, err
		}
		buf = view
	} else {
		if scratch != nil {
			if int64(cap(*scratch)) < n {
				*scratch = make([]byte, n)
			}
			buf = (*scratch)[:n]
		} else {
			buf = make([]byte, n)
		}
		if _, err := r.f.ReadAt(buf, int64(h.Offset)); err != nil {
			return nil, err
		}
	}
	return checkBlock(buf, h)
}

// checkBlock verifies the checksum of a block read from the file — payload,
// type byte, crc32c — and returns its physical image with the checksum
// stripped.
func checkBlock(buf []byte, h Handle) ([]byte, error) {
	img := buf[: h.Length+1 : h.Length+1]
	want := binary.LittleEndian.Uint32(buf[h.Length+1:])
	if crc32.Checksum(img, crcTable) != want {
		return nil, errCorruptf("checksum mismatch at offset %d", h.Offset)
	}
	return img, nil
}

// readBlockRaw reads, checksums and decodes a block, bypassing the cache.
// Used by iterators that must not fill the cache, such as compaction's.
func (r *Reader) readBlockRaw(h Handle) ([]byte, error) {
	img, err := r.readBlockPhysical(h, nil)
	if err != nil {
		return nil, err
	}
	return decodeBlock(img)
}

// readBlock fetches a data block through the cache. The cache stores
// physical images; the logical block is decoded after every Get or miss (a
// zero-copy slice for uncompressed blocks, a fresh exact-size buffer for
// flate). A missed block is offered to the cache under the operation's fill
// rules; scan tags the insert with its origin. A point lookup reads a block the cache will not keep into
// stats' scratch: it is done with the block before its next read, and
// copies the value it returns.
func (r *Reader) readBlock(h Handle, scan bool, stats *ReadStats) ([]byte, error) {
	if c := r.opts.Cache; c != nil {
		if img, ok := c.Get(r.opts.FileNum, h.Offset); ok {
			if stats != nil {
				stats.BlockHits++
			}
			return decodeBlock(img)
		}
	}
	keep := r.keeps(h)
	var scratch *[]byte
	if !keep && !scan && stats != nil {
		scratch = &stats.blockBuf
	}
	img, err := r.readBlockPhysical(h, scratch)
	if err != nil {
		return nil, err
	}
	data, err := decodeBlock(img)
	if err != nil {
		return nil, err
	}
	if stats != nil {
		stats.BlockMisses++
	}
	if r.admits(scan, stats) && keep {
		r.opts.Cache.Insert(r.opts.FileNum, h.Offset, img, len(data))
	}
	return data, nil
}

// keeps reports whether the cache would keep the block at h, whose
// physical image is its payload plus the compression-type byte.
func (r *Reader) keeps(h Handle) bool {
	return r.opts.Cache != nil && r.opts.Cache.Fits(int(h.Length)+1)
}

// admits reports whether a block that missed the cache may be inserted under
// the operation's fill rules, consuming one unit of a scan's fill budget if
// so: the budget counts actual inserts, never cache hits (block-level partial
// admission).
func (r *Reader) admits(scan bool, stats *ReadStats) bool {
	if r.opts.Cache == nil {
		return false
	}
	if scan && stats != nil && stats.LimitScanFill {
		if stats.ScanFillBudget <= 0 {
			return false
		}
		stats.ScanFillBudget--
	}
	return true
}

// parseIndex decodes a serialized index block into a flat sorted entry
// slice. Separator keys are copied into one contiguous arena so the parsed
// form holds exactly two heap objects regardless of block count.
func parseIndex(raw []byte) ([]indexEntry, error) {
	it, err := block.NewIter(raw, icmp)
	if err != nil {
		return nil, err
	}
	var (
		arena   []byte
		offsets []int // 2 per entry: sep start, sep end
		handles []Handle
	)
	for ok := it.First(); ok; ok = it.Next() {
		if len(it.Value()) != 16 {
			return nil, errCorruptf("bad index entry")
		}
		start := len(arena)
		arena = append(arena, it.Key()...)
		offsets = append(offsets, start, len(arena))
		handles = append(handles, decodeHandle(it.Value()))
	}
	if err := it.Err(); err != nil {
		return nil, err
	}
	entries := make([]indexEntry, len(handles))
	for i := range entries {
		entries[i] = indexEntry{
			sep: keys.InternalKey(arena[offsets[2*i]:offsets[2*i+1]]),
			h:   handles[i],
		}
	}
	return entries, nil
}

// findBlock locates the position in the parsed index of the data block that
// may contain ikey: the first block whose separator (last key) >= ikey.
// Returns len(r.index) if ikey is past the last block.
func (r *Reader) findBlock(ikey keys.InternalKey) int {
	lo, hi := 0, len(r.index)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys.Compare(r.index[mid].sep, ikey) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Get returns the value for the newest version of userKey visible at
// snapshot seq. Returns ok=false if the table has no visible version;
// deleted=true if the newest visible version is a tombstone.
func (r *Reader) Get(userKey []byte, seq uint64, stats *ReadStats) (value []byte, deleted, ok bool, err error) {
	if r.filter != nil && !r.filter.MayContain(userKey) {
		if stats != nil {
			stats.FilterNegatives++
		}
		return nil, false, false, nil
	}
	// The seek key and block iterator come from the per-operation scratch in
	// stats when available, so a warm lookup performs no allocations before
	// the final value copy.
	var it *block.Iter
	var search keys.InternalKey
	if stats != nil {
		stats.seekBuf = keys.AppendSearch(stats.seekBuf[:0], userKey, seq)
		search = keys.InternalKey(stats.seekBuf)
		it = &stats.blockIter
	} else {
		search = keys.MakeSearch(userKey, seq)
		it = new(block.Iter)
	}
	pos := r.findBlock(search)
	if pos == len(r.index) {
		return nil, false, false, nil
	}
	data, err := r.readBlock(r.index[pos].h, false, stats)
	if err != nil {
		return nil, false, false, err
	}
	if err := it.Init(data, icmp); err != nil {
		return nil, false, false, err
	}
	if !it.Seek(search) {
		return nil, false, false, it.Err()
	}
	ik := keys.InternalKey(it.Key())
	if string(ik.UserKey()) != string(userKey) {
		return nil, false, false, nil
	}
	if ik.Kind() == keys.KindDelete {
		return nil, true, true, nil
	}
	// Copy: the block may live in the cache and be evicted/reused.
	return append([]byte(nil), it.Value()...), false, true, nil
}

func icmp(a, b []byte) int { return keys.Compare(a, b) }
