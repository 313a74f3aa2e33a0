package lsm

import (
	"sync"

	"adcache/internal/sstable"
	"adcache/internal/vfs"
)

// tableCache keeps sstable readers open for the DB's lifetime, evicting them
// when their files are deleted by compaction. Index and filter blocks stay
// pinned with the reader, matching RocksDB's default behaviour.
//
// Opens are per-file singleflight: the global lock is only held to look up
// or install a table entry, never across the file open and index/filter
// reads, so one cold table open cannot stall concurrent readers of
// already-open tables. Concurrent openers of the same file share one open.
type tableCache struct {
	// fs counts the device reads table readers issue — calls and bytes,
	// whichever of ReadAt or a no-copy view serves them — apart from the
	// engine's other file I/O.
	fs    *vfs.CountingFS
	dir   string
	cache sstable.BlockCache // shared by all readers; may be nil

	mu     sync.RWMutex
	tables map[uint64]*tableEntry
}

// tableEntry is the per-file singleflight slot: the first goroutine through
// once performs the open while later arrivals block only on this entry.
type tableEntry struct {
	once sync.Once
	r    *sstable.Reader
	err  error
}

func newTableCache(fs vfs.FS, dir string, cache sstable.BlockCache) *tableCache {
	return &tableCache{fs: vfs.NewCounting(fs), dir: dir, cache: cache, tables: make(map[uint64]*tableEntry)}
}

// get returns the reader for fileNum, opening it on first use.
func (tc *tableCache) get(fileNum uint64) (*sstable.Reader, error) {
	tc.mu.RLock()
	e := tc.tables[fileNum]
	tc.mu.RUnlock()
	if e == nil {
		tc.mu.Lock()
		if e = tc.tables[fileNum]; e == nil {
			e = &tableEntry{}
			tc.tables[fileNum] = e
		}
		tc.mu.Unlock()
	}
	e.once.Do(func() { e.r, e.err = tc.open(fileNum) })
	if e.err != nil {
		// Drop the failed entry (unless already replaced or evicted) so a
		// later lookup can retry instead of caching the failure forever.
		tc.mu.Lock()
		if tc.tables[fileNum] == e {
			delete(tc.tables, fileNum)
		}
		tc.mu.Unlock()
		return nil, e.err
	}
	return e.r, nil
}

// open performs the actual file open and reader construction. It runs
// without tc.mu held.
func (tc *tableCache) open(fileNum uint64) (*sstable.Reader, error) {
	f, err := tc.fs.Open(sstPath(tc.dir, fileNum))
	if err != nil {
		return nil, err
	}
	return sstable.NewReader(f, sstable.ReaderOptions{Cache: tc.cache, FileNum: fileNum})
}

// evict drops the reader for a deleted file.
func (tc *tableCache) evict(fileNum uint64) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	delete(tc.tables, fileNum)
}
