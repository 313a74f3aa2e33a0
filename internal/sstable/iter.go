package sstable

import (
	"bytes"
	"math"

	"adcache/internal/block"
	"adcache/internal/keys"
)

// Iter is a forward iterator over a whole table. It walks the Reader's
// parsed index by position and streams through data blocks with an embedded
// by-value block iterator, so steady-state iteration performs no per-block
// allocations. Each data block is fetched through the cache with scan-fill
// semantics.
//
// On the ReadAt path (no mmap view) a block that misses the cache is fetched
// together with the contiguous blocks the iterator expects to need next, in
// one device read (see fillSpan); the following blocks are then served from
// that span. The span buffer is owned by the Iter and reused across Init, so
// blocks offered to the cache from it are copied out first.
//
// A zero Iter must be initialised with Init (or obtained from
// Reader.NewIter) before use; re-initialising a warm Iter retains its
// internal buffers. Iter is not safe for concurrent use.
type Iter struct {
	r       *Reader
	idxPos  int // position in r.index of the loaded data block
	data    block.Iter
	stats   *ReadStats
	upper   []byte // exclusive user-key upper bound; nil = unbounded
	bypass  bool   // skip the cache entirely (compaction reads)
	err     error
	valid   bool
	exhaust bool

	// span holds the physical images of index positions [spanLo, spanHi),
	// read from file offset spanOff in one ReadAt.
	span           []byte
	spanOff        uint64
	spanLo, spanHi int
	// share is this table's run's expected fraction of the entries the
	// operation still wants (ReadStats.ScanRemaining); it sizes the span.
	share float64
}

const (
	// maxScanSpan is the size at which a query iterator stops adding blocks
	// to one device read.
	maxScanSpan = 32 << 10
	// CompactionReadahead is the sequential window of cache-bypassing
	// iterators (compaction inputs, integrity walks), which always consume
	// the whole table: RocksDB's compaction_readahead_size. A window is the
	// whole blocks that reach this size, so a table of N bytes takes at most
	// N/CompactionReadahead + 1 reads.
	CompactionReadahead = 64 << 10
)

// NewIter returns an iterator over r. stats may be nil.
func (r *Reader) NewIter(stats *ReadStats) (*Iter, error) {
	it := new(Iter)
	it.Init(r, stats)
	return it, nil
}

// NewIterNoCache returns an iterator that bypasses the block cache entirely:
// it neither probes nor fills. Compaction uses it so merge I/O does not
// pollute the cache or perturb eviction recency, matching RocksDB.
func (r *Reader) NewIterNoCache() (*Iter, error) {
	it := new(Iter)
	it.InitNoCache(r)
	return it, nil
}

// Init points the iterator at r, replacing any previous state while
// retaining internal buffers. The engine pools Iters across operations and
// re-Inits them here.
func (i *Iter) Init(r *Reader, stats *ReadStats) {
	i.r = r
	i.idxPos = -1
	i.data.Reset()
	i.stats = stats
	i.upper = nil
	i.bypass = false
	i.err = nil
	i.valid = false
	i.exhaust = false
	i.spanLo, i.spanHi = 0, 0
	i.share = 1
}

// InitNoCache is Init for an iterator that bypasses the block cache, as
// NewIterNoCache returns.
func (i *Iter) InitNoCache(r *Reader) {
	i.Init(r, nil)
	i.bypass = true
}

// SetShare tells the iterator which fraction of the entries its operation
// still wants (ReadStats.ScanRemaining) this table's sorted run is expected
// to supply: the run's share of the entries of all runs the scan merges.
func (i *Iter) SetShare(share float64) { i.share = share }

// SetUpperBound restricts subsequent positioning to entries whose user key
// is strictly below upper; nil removes the bound. Once the iterator steps to
// or past the bound it reports exhaustion and loads no further blocks, so a
// bounded reader touches only the blocks its range needs. Subcompaction
// shards use this so sibling shards never re-read each other's key ranges.
func (i *Iter) SetUpperBound(upper []byte) { i.upper = upper }

// Close drops references to the Reader and stats so a pooled Iter never
// keeps a retired table's pinned index alive. The Iter may be re-used via
// Init afterwards.
func (i *Iter) Close() {
	i.r = nil
	i.stats = nil
	i.data.Reset()
	i.upper = nil
	i.err = nil
	i.valid = false
	i.exhaust = false
	i.spanLo, i.spanHi = 0, 0
}

// Closed reports whether the iterator has been released with Close and not
// re-initialised since. Lifecycle tests use it to assert iterators are not
// leaked by background paths.
func (i *Iter) Closed() bool { return i.r == nil }

// checkUpper invalidates the iterator once the current entry reaches the
// upper bound. Returns true while still inside the bound.
func (i *Iter) checkUpper() bool {
	if i.upper == nil ||
		bytes.Compare(keys.InternalKey(i.data.Key()).UserKey(), i.upper) < 0 {
		return true
	}
	i.valid = false
	i.exhaust = true
	return false
}

// loadData opens the data block at index position i.idxPos.
func (i *Iter) loadData() bool {
	h := i.r.index[i.idxPos].h
	var data []byte
	var err error
	switch {
	case i.r.nc == nil:
		data, err = i.readCoalesced(h)
	case i.bypass:
		// A no-copy view is a slice of mapped pages: there is no device
		// call to coalesce, so the mmap path reads block by block.
		data, err = i.r.readBlockRaw(h)
	default:
		data, err = i.r.readBlock(h, true, i.stats)
	}
	if err != nil {
		i.err = err
		return false
	}
	if err := i.data.Init(data, icmp); err != nil {
		i.err = err
		return false
	}
	return true
}

// readCoalesced returns the data block at i.idxPos on the ReadAt path: from
// the current span if it covers the block, else from the cache, else from a
// new span starting at the block. A block taken from a span counts as one
// block miss when it is consumed — prefetched blocks the iterator never
// reaches are not counted — and its checksum is verified then.
func (i *Iter) readCoalesced(h Handle) ([]byte, error) {
	r := i.r
	if i.idxPos < i.spanLo || i.idxPos >= i.spanHi {
		if c := r.opts.Cache; c != nil && !i.bypass {
			if img, ok := c.Get(r.opts.FileNum, h.Offset); ok {
				if i.stats != nil {
					i.stats.BlockHits++
				}
				return decodeBlock(img)
			}
		}
		if err := i.fillSpan(); err != nil {
			return nil, err
		}
	}
	img, err := checkBlock(i.span[h.Offset-i.spanOff:][:h.Length+TrailerLen], h)
	if err != nil {
		return nil, err
	}
	data, err := decodeBlock(img)
	if err != nil {
		return nil, err
	}
	if i.stats != nil {
		i.stats.BlockMisses++
	}
	if !i.bypass && r.admits(true, i.stats) && r.keeps(h) {
		// The cache gets a copy of exactly the block: img aliases the span,
		// which this iterator reuses and which is several blocks long.
		r.opts.Cache.Insert(r.opts.FileNum, h.Offset, bytes.Clone(img), len(data))
	}
	return data, nil
}

// fillSpan reads the block at i.idxPos and the contiguous blocks after it
// that the iterator expects to consume into the span buffer with one ReadAt.
// The block count is derived, not configured. A cache-bypassing iterator
// reads the whole table, so it takes a fixed sequential window. A query
// iterator takes the most blocks the entries it expects to supply can touch:
// the entries its operation still wants times this run's share of them, less
// one, over the table's mean entries per block, rounded up, plus one. With
// the length unknown (a streamed iterator) each sequential refill doubles the
// last. The span stops once it holds the byte limit, at the upper bound, at
// the end of the table, and at any gap between blocks.
func (i *Iter) fillSpan() error {
	r := i.r
	blocks, limit := 1, uint64(maxScanSpan)
	switch {
	case i.bypass:
		blocks, limit = len(r.index), CompactionReadahead
	case i.stats != nil && i.stats.ScanRemaining > 0:
		// n entries touch at most ceil((n-1)/perBlock) + 1 blocks.
		perBlock := float64(r.entries) / float64(len(r.index))
		want := (float64(i.stats.ScanRemaining)*i.share - 1) / max(perBlock, 1)
		blocks = int(math.Ceil(min(want, float64(len(r.index))))) + 1
	case i.idxPos == i.spanHi && i.spanHi > i.spanLo:
		blocks = 2 * (i.spanHi - i.spanLo)
	}
	first := r.index[i.idxPos].h
	hi, end := i.idxPos+1, first.Offset+first.Length+TrailerLen
	for ; hi < len(r.index) && hi-i.idxPos < blocks; hi++ {
		h := r.index[hi].h
		if h.Offset != end || end-first.Offset >= limit ||
			(i.upper != nil && bytes.Compare(r.index[hi-1].sep.UserKey(), i.upper) >= 0) {
			break
		}
		end += h.Length + TrailerLen
	}
	size := int(end - first.Offset)
	if cap(i.span) < size {
		i.span = make([]byte, size)
	}
	i.span = i.span[:size]
	i.spanLo, i.spanHi = 0, 0
	if _, err := r.f.ReadAt(i.span, int64(first.Offset)); err != nil {
		return err
	}
	i.spanOff, i.spanLo, i.spanHi = first.Offset, i.idxPos, hi
	return nil
}

// latchDataErr preserves a corruption error from the current data block
// before the block iterator is re-initialised for the next block, so block
// corruption surfaces through Err instead of silently truncating the scan.
func (i *Iter) latchDataErr() bool {
	if i.err == nil {
		i.err = i.data.Err()
	}
	return i.err != nil
}

// First positions at the table's first entry.
func (i *Iter) First() bool {
	i.exhaust, i.valid = false, false
	if len(i.r.index) == 0 {
		i.exhaust = true
		return false
	}
	i.idxPos = 0
	if !i.loadData() {
		return false
	}
	if !i.data.First() {
		i.latchDataErr()
		return false
	}
	i.valid = true
	return i.checkUpper()
}

// Seek positions at the first entry with internal key >= target.
func (i *Iter) Seek(target keys.InternalKey) bool {
	i.exhaust, i.valid = false, false
	pos := i.r.findBlock(target)
	if pos == len(i.r.index) {
		i.exhaust = true
		return false
	}
	i.idxPos = pos
	if !i.loadData() {
		return false
	}
	if !i.data.Seek(target) {
		if i.latchDataErr() {
			// The in-block seek failed because the block is corrupt, not
			// because target is past the block: stop rather than skip ahead.
			return false
		}
		// Target is past this block's last key (possible only due to index
		// separator semantics); advance to the next block's first entry.
		return i.nextBlock()
	}
	i.valid = true
	return i.checkUpper()
}

// Next advances to the following entry.
func (i *Iter) Next() bool {
	if !i.valid {
		return false
	}
	if i.data.Next() {
		return i.checkUpper()
	}
	return i.nextBlock()
}

func (i *Iter) nextBlock() bool {
	i.valid = false
	if i.latchDataErr() {
		return false
	}
	if i.idxPos+1 >= len(i.r.index) {
		i.exhaust = true
		return false
	}
	i.idxPos++
	if !i.loadData() {
		return false
	}
	if !i.data.First() {
		i.latchDataErr()
		return false
	}
	i.valid = true
	return i.checkUpper()
}

// Valid reports whether the iterator is positioned at an entry.
func (i *Iter) Valid() bool { return i.valid }

// Key returns the current internal key; valid until the next move.
func (i *Iter) Key() keys.InternalKey { return keys.InternalKey(i.data.Key()) }

// Value returns the current value; valid until the next move.
func (i *Iter) Value() []byte { return i.data.Value() }

// Err returns the first error encountered.
func (i *Iter) Err() error {
	if i.err != nil {
		return i.err
	}
	return i.data.Err()
}
