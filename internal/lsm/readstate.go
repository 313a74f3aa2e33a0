package lsm

import (
	"bytes"
	"sort"

	"adcache/internal/manifest"
	"adcache/internal/memtable"
	"adcache/internal/sstable"
)

// readSnapshot is what one read operates on: the memtables, the pinned
// version and the last sequence number visible when it was taken. Nothing in
// it changes under the reader — memtables only grow (at higher sequence
// numbers), the version handle keeps its files alive — so d.mu is held only
// while the snapshot is taken, never while it is read.
type readSnapshot struct {
	mem *memtable.MemTable
	imm []*immTable
	h   *versionHandle
	seq uint64
}

// pinSnapshot takes the read snapshot every Get, scan and Iterator runs on.
// The caller owes a releaseVersion(snap.h).
func (d *DB) pinSnapshot() (readSnapshot, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		return readSnapshot{}, ErrClosed
	}
	return readSnapshot{mem: d.mem, imm: d.imm, h: d.acquireVersion(), seq: d.lastSeq}, nil
}

// currentLocked reports whether a result read from snap still describes the
// user keys in [lo, hi] (nil hi = unbounded): no write at all since the
// snapshot, or none of the writes since touches the span. Only the active
// memtable is probed — every write after the snapshot went into it — so if
// it has been sealed in the meantime the answer is simply no. Caller holds
// d.mu, which is what keeps the answer true while the result is admitted.
func (d *DB) currentLocked(snap *readSnapshot, lo, hi []byte) bool {
	if d.lastSeq == snap.seq {
		return true
	}
	return d.mem == snap.mem && !snap.mem.NewerThan(lo, hi, snap.seq)
}

// readState is the pooled per-operation scratch for the read hot paths
// (Get and scan). Pooling it keeps steady-state point lookups and warm
// scans free of per-operation allocations: the seek-key buffers, the
// block iterator, the merge heap, and the iterator stack all retain their
// backing storage between operations.
//
// A readState is used by one goroutine for one operation and returned to
// the pool before the operation's results are handed out (results never
// alias readState memory).
type readState struct {
	stats   sstable.ReadStats
	seekBuf []byte // search-key scratch for the memtable probes
	iters   []internalIterator
	merge   mergingIter
	vi      visibleIter

	// Reusable run iterators, handed out per scan in order. Each embeds its
	// table iterator, whose coalesced-read buffer is therefore pooled too.
	lvlIters []*levelIter
	lvlUsed  int
}

// getReadState fetches a readState from the pool, reset for a new operation.
func (d *DB) getReadState() *readState {
	rs := d.readPool.Get().(*readState)
	rs.stats.Reset()
	rs.iters = rs.iters[:0]
	rs.lvlUsed = 0
	return rs
}

// putReadState drops references to engine objects (memtables, readers,
// version-pinned files) so the pool never keeps them alive, then returns
// the scratch to the pool. Runs the operation positioned but never had to
// open are counted on the way out.
func (d *DB) putReadState(rs *readState) {
	for i := range rs.iters {
		rs.iters[i] = nil
	}
	rs.iters = rs.iters[:0]
	rs.merge.setIters(nil)
	rs.vi.init(nil, 0)
	var skipped int64
	for _, l := range rs.lvlIters[:rs.lvlUsed] {
		if l.parked && !l.opened {
			skipped++
		}
		l.init(nil, nil, nil, nil)
	}
	if skipped > 0 {
		d.metrics.lazySkippedRuns.Add(skipped)
	}
	d.readPool.Put(rs)
}

// runIter returns a pooled run iterator over files: a sorted level or one L0
// file.
func (rs *readState) runIter(tc *tableCache, files []*manifest.FileMeta, upper []byte) *levelIter {
	if rs.lvlUsed == len(rs.lvlIters) {
		rs.lvlIters = append(rs.lvlIters, new(levelIter))
	}
	l := rs.lvlIters[rs.lvlUsed]
	rs.lvlUsed++
	l.init(tc, files, &rs.stats, upper)
	return l
}

// buildIter assembles in rs the operation's iterator stack — the active and
// sealed memtables, one run iterator per L0 file and per deeper level that
// can hold a key in [start, end) (nil = unbounded) — and returns the merged
// stream filtered to the versions visible in snap. Nothing is read: run
// iterators open their files when the merge reaches them.
//
// Each run's share of the entries the scan will return is estimated as its
// share of the entries of the runs the scan starts inside; a run that begins
// above start is parked by the seek and takes no part unless the scan gets
// that far, so it is counted only in its own denominator.
func (d *DB) buildIter(rs *readState, snap *readSnapshot, start, end []byte) *visibleIter {
	v := snap.h.v
	iters := append(rs.iters, snap.mem.NewIter())
	for i := len(snap.imm) - 1; i >= 0; i-- {
		iters = append(iters, snap.imm[i].mem.NewIter())
	}
	var inside float64 // entries of the runs that contain start
	addRun := func(files []*manifest.FileMeta) {
		if len(files) == 0 {
			return
		}
		l := rs.runIter(d.tc, files, end)
		l.share = 0 // the run's entry count until normalised below
		for _, f := range files {
			l.share += float64(f.NumEntries)
		}
		if bytes.Compare(files[0].Smallest.UserKey(), start) <= 0 {
			inside += l.share
		}
		iters = append(iters, l)
	}
	l0 := v.Levels[0]
	for i := range l0 {
		addRun(overlappingRun(l0[i:i+1], start, end))
	}
	for _, level := range v.Levels[1:] {
		addRun(overlappingRun(level, start, end))
	}
	for _, l := range rs.lvlIters[:rs.lvlUsed] {
		among := inside
		if bytes.Compare(l.files[0].Smallest.UserKey(), start) > 0 {
			among += l.share
		}
		if among > 0 {
			l.share /= among
		} else {
			l.share = 1
		}
	}
	rs.iters = iters
	rs.merge.setIters(iters)
	rs.vi.init(&rs.merge, snap.seq)
	return &rs.vi
}

// overlappingRun returns the files of a sorted, non-overlapping run that can
// hold a user key in [start, end) (nil end = unbounded), as a sub-slice.
func overlappingRun(files []*manifest.FileMeta, start, end []byte) []*manifest.FileMeta {
	lo := sort.Search(len(files), func(i int) bool {
		return bytes.Compare(files[i].Largest.UserKey(), start) >= 0
	})
	files = files[lo:]
	if end == nil {
		return files
	}
	return files[:sort.Search(len(files), func(i int) bool {
		return bytes.Compare(files[i].Smallest.UserKey(), end) >= 0
	})]
}
