package lsm

import (
	"bytes"
	"fmt"

	"adcache/internal/keys"
	"adcache/internal/manifest"
	"adcache/internal/sstable"
)

// internalIterator is the common shape of memtable, sstable and level
// iterators.
type internalIterator interface {
	First() bool
	Seek(target keys.InternalKey) bool
	Next() bool
	Valid() bool
	Key() keys.InternalKey
	Value() []byte
	Err() error
}

// levelIter iterates one sorted run: a non-overlapping level (L1+) or a
// single L0 file. It embeds one sstable.Iter by value and re-initialises it
// per file, so crossing a file boundary performs no allocation.
//
// Positioning is lazy. Whenever the iterator lands on the start of a file —
// a Seek whose target is at or below the file's smallest key, First, or Next
// off the end of the previous file — it parks there: it reports the file's
// FileMeta.Smallest as its key and reads nothing. FileMeta.Smallest is the
// table's first entry, so the parked key is exactly the key First would
// produce and the merge heap orders the run correctly without any I/O. The
// file is opened only when the run's value or successor is asked for, that
// is, when the merge has actually reached the run.
type levelIter struct {
	tc      *tableCache
	files   []*manifest.FileMeta
	stats   *sstable.ReadStats
	upper   []byte  // exclusive user-key bound; nil = unbounded
	share   float64 // see sstable.Iter.SetShare
	noCache bool    // open files with cache-bypassing iterators (compaction)

	idx    int // current file index
	iter   sstable.Iter
	iterOK bool // iter is initialised on files[idx]
	parked bool // positioned on files[idx].Smallest; the file is unopened
	opened bool // a file was opened since init: the run cost reader I/O
	err    error
}

// init points the levelIter at a run, replacing any previous state while
// retaining the embedded iterator's buffers (the engine pools levelIters).
func (l *levelIter) init(tc *tableCache, files []*manifest.FileMeta, stats *sstable.ReadStats, upper []byte) {
	l.tc = tc
	l.files = files
	l.stats = stats
	l.upper = upper
	l.share = 1
	l.noCache = false
	l.idx = -1
	l.iter.Close()
	l.iterOK, l.parked, l.opened = false, false, false
	l.err = nil
}

// park positions the iterator on the first entry of files[idx] without
// opening the file.
func (l *levelIter) park(idx int) bool {
	l.idx, l.iterOK = idx, false
	l.parked = idx < len(l.files) &&
		(l.upper == nil || bytes.Compare(l.files[idx].Smallest.UserKey(), l.upper) < 0)
	return l.parked
}

// open initialises the table iterator on files[l.idx].
func (l *levelIter) open() bool {
	l.parked, l.iterOK = false, false
	r, err := l.tc.get(l.files[l.idx].FileNum)
	if err != nil {
		l.err = err
		return false
	}
	if l.noCache {
		l.iter.InitNoCache(r)
	} else {
		l.iter.Init(r, l.stats)
		l.iter.SetShare(l.share)
	}
	l.iter.SetUpperBound(l.upper)
	l.iterOK, l.opened = true, true
	return true
}

// unpark opens the file the iterator is parked on and positions the table
// iterator on its first entry, which must be the key the run has been
// reporting.
func (l *levelIter) unpark() bool {
	if !l.open() {
		return false
	}
	f := l.files[l.idx]
	if !l.iter.First() || !bytes.Equal(l.iter.Key(), f.Smallest) {
		if l.iter.Err() == nil {
			l.err = fmt.Errorf("%w: table %06d does not start at its manifest smallest key",
				sstable.ErrCorrupt, f.FileNum)
		}
		return false
	}
	return true
}

func (l *levelIter) First() bool { return l.park(0) }

func (l *levelIter) Seek(target keys.InternalKey) bool {
	// Binary search for the first file whose largest key >= target.
	lo, hi := 0, len(l.files)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys.Compare(l.files[mid].Largest, target) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(l.files) || keys.Compare(target, l.files[lo].Smallest) <= 0 {
		return l.park(lo)
	}
	// target falls inside the file: finding its successor needs the blocks.
	l.idx = lo
	if !l.open() {
		return false
	}
	return l.iter.Seek(target) || l.Next()
}

func (l *levelIter) Next() bool {
	if l.err != nil || (l.parked && !l.unpark()) || !l.iterOK {
		return false
	}
	if l.iter.Next() {
		return true
	}
	if l.err = l.iter.Err(); l.err != nil {
		// Latch corruption from the exhausted file before Init clears it.
		return false
	}
	return l.park(l.idx + 1)
}

func (l *levelIter) Valid() bool { return l.parked || (l.iterOK && l.iter.Valid()) }

func (l *levelIter) Key() keys.InternalKey {
	if l.parked {
		return l.files[l.idx].Smallest
	}
	return l.iter.Key()
}

// Value returns the current value, opening the file if the iterator is
// parked. A failed open surfaces through Err; the value is then nil.
func (l *levelIter) Value() []byte {
	if l.parked && !l.unpark() {
		return nil
	}
	return l.iter.Value()
}

func (l *levelIter) Err() error {
	if l.err != nil {
		return l.err
	}
	if l.iterOK {
		return l.iter.Err()
	}
	return nil
}

// mergeChild is one source in the merge heap. It caches the child's current
// key so heap comparisons are direct slice compares instead of virtual
// Key() calls through the interface.
type mergeChild struct {
	it  internalIterator
	key keys.InternalKey
}

// mergingIter merges several internalIterators into one stream ordered by
// internal key. Internal keys are globally unique (sequence numbers are
// unique), so no tie-breaking across sources is needed.
//
// The heap is a concrete slice min-heap over mergeChild — no container/heap,
// so nothing is boxed through `any` and sift operations move small structs.
type mergingIter struct {
	iters []internalIterator
	h     []mergeChild
	init  bool
}

func newMergingIter(iters ...internalIterator) *mergingIter {
	return &mergingIter{iters: iters}
}

// setIters re-targets a pooled mergingIter at a new source slice, dropping
// every child reference the previous operation left in the heap's backing
// array so pooling never extends iterator lifetimes.
func (m *mergingIter) setIters(iters []internalIterator) {
	m.iters = iters
	full := m.h[:cap(m.h)]
	for i := range full {
		full[i] = mergeChild{}
	}
	m.h = m.h[:0]
	m.init = false
}

func (m *mergingIter) less(a, b int) bool {
	return keys.Compare(m.h[a].key, m.h[b].key) < 0
}

// siftDown restores the heap property from position i downward.
func (m *mergingIter) siftDown(i int) {
	n := len(m.h)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		small := left
		if right := left + 1; right < n && m.less(right, left) {
			small = right
		}
		if !m.less(small, i) {
			return
		}
		m.h[i], m.h[small] = m.h[small], m.h[i]
		i = small
	}
}

func (m *mergingIter) reset(position func(internalIterator) bool) bool {
	m.h = m.h[:0]
	for _, it := range m.iters {
		if position(it) {
			m.h = append(m.h, mergeChild{it: it, key: it.Key()})
		}
	}
	for i := len(m.h)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
	m.init = true
	return len(m.h) > 0
}

func (m *mergingIter) First() bool {
	return m.reset(func(it internalIterator) bool { return it.First() })
}

func (m *mergingIter) Seek(target keys.InternalKey) bool {
	return m.reset(func(it internalIterator) bool { return it.Seek(target) })
}

func (m *mergingIter) Next() bool {
	if !m.init || len(m.h) == 0 {
		return false
	}
	top := &m.h[0]
	if top.it.Next() {
		top.key = top.it.Key()
		m.siftDown(0)
	} else {
		n := len(m.h) - 1
		m.h[0] = m.h[n]
		m.h[n] = mergeChild{} // release the retired child for GC
		m.h = m.h[:n]
		if n > 1 {
			m.siftDown(0)
		}
	}
	return len(m.h) > 0
}

func (m *mergingIter) Valid() bool { return m.init && len(m.h) > 0 }

func (m *mergingIter) Key() keys.InternalKey { return m.h[0].key }

func (m *mergingIter) Value() []byte { return m.h[0].it.Value() }

func (m *mergingIter) Err() error {
	for _, it := range m.iters {
		if err := it.Err(); err != nil {
			return err
		}
	}
	return nil
}

// visibleIter filters a merged internal stream down to the newest visible
// version of each user key at snapshot seq, skipping shadowed versions.
// Tombstones are surfaced (Deleted()=true) so callers can skip dead keys.
type visibleIter struct {
	it      internalIterator
	seq     uint64
	userKey []byte
	value   []byte
	seekBuf []byte // scratch for SeekGE search keys, reused across seeks
	deleted bool
	valid   bool
}

// init re-targets a pooled visibleIter, retaining its scratch buffers.
func (v *visibleIter) init(it internalIterator, seq uint64) {
	v.it = it
	v.seq = seq
	v.userKey = v.userKey[:0]
	v.value = nil
	v.deleted = false
	v.valid = false
}

// SeekGE positions at the newest visible version of the first user key
// >= target.
func (v *visibleIter) SeekGE(target []byte) bool {
	v.seekBuf = keys.AppendSearch(v.seekBuf[:0], target, v.seq)
	if !v.it.Seek(v.seekBuf) {
		v.valid = false
		return false
	}
	return v.settle()
}

// First positions at the first user key.
func (v *visibleIter) First() bool {
	if !v.it.First() {
		v.valid = false
		return false
	}
	return v.settle()
}

// settle finds the newest visible version at or after the current position.
func (v *visibleIter) settle() bool {
	for {
		if !v.it.Valid() {
			v.valid = false
			return false
		}
		ik := v.it.Key()
		if ik.Seq() > v.seq {
			// Invisible (newer than snapshot): skip this version.
			if !v.it.Next() {
				v.valid = false
				return false
			}
			continue
		}
		v.userKey = append(v.userKey[:0], ik.UserKey()...)
		v.value = v.it.Value()
		v.deleted = ik.Kind() == keys.KindDelete
		v.valid = true
		return true
	}
}

// Next advances to the next distinct user key.
func (v *visibleIter) Next() bool {
	if !v.valid {
		return false
	}
	// Skip remaining (older) versions of the current user key.
	for {
		if !v.it.Next() {
			v.valid = false
			return false
		}
		if !bytes.Equal(v.it.Key().UserKey(), v.userKey) {
			break
		}
	}
	return v.settle()
}

// Valid reports whether positioned at an entry.
func (v *visibleIter) Valid() bool { return v.valid }

// UserKey returns the current user key (stable until next move).
func (v *visibleIter) UserKey() []byte { return v.userKey }

// Value returns the current value.
func (v *visibleIter) Value() []byte { return v.value }

// Deleted reports whether the current entry is a tombstone.
func (v *visibleIter) Deleted() bool { return v.deleted }

// Err propagates the underlying iterator error.
func (v *visibleIter) Err() error { return v.it.Err() }
