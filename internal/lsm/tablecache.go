package lsm

import (
	"sync"

	"adcache/internal/manifest"
	"adcache/internal/metrics"
	"adcache/internal/sstable"
	"adcache/internal/vfs"
)

// tableCache keeps one sstable reader per live table, with the table's
// index and filter blocks pinned, matching RocksDB's default behaviour.
// The flush or compaction that writes a table opens it here before the edit
// that lists it commits, so reads find every table they can reach already
// open; only tables recovered at Open are opened by the first read. A
// reader closes when its file is deleted (evict), and the rest when the
// DB's last read is done after Close (close).
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
	opens *metrics.Counter   // tables opened

	mu     sync.RWMutex
	tables map[uint64]*tableEntry
	closed bool // set by close; no table opens after it
}

// tableEntry is the per-file singleflight slot: the first goroutine through
// once performs the open while later arrivals block only on this entry.
type tableEntry struct {
	once sync.Once
	r    *sstable.Reader
	err  error
}

func newTableCache(fs vfs.FS, dir string, cache sstable.BlockCache, opens *metrics.Counter) *tableCache {
	return &tableCache{fs: vfs.NewCounting(fs), dir: dir, cache: cache, opens: opens, tables: make(map[uint64]*tableEntry)}
}

// get returns the reader for fileNum, opening it on first use.
func (tc *tableCache) get(fileNum uint64) (*sstable.Reader, error) {
	tc.mu.RLock()
	e := tc.tables[fileNum]
	tc.mu.RUnlock()
	if e == nil {
		tc.mu.Lock()
		if tc.closed {
			tc.mu.Unlock()
			return nil, ErrClosed
		}
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
	tc.opens.Inc()
	f, err := tc.fs.Open(sstPath(tc.dir, fileNum))
	if err != nil {
		return nil, err
	}
	r, err := sstable.NewReader(f, sstable.ReaderOptions{Cache: tc.cache, FileNum: fileNum})
	if err != nil {
		f.Close()
		return nil, err
	}
	return r, nil
}

// evict drops and closes the reader of a file that no version lists: a
// deleted table, or the output of a job that failed before its edit.
func (tc *tableCache) evict(fileNum uint64) {
	tc.mu.Lock()
	e := tc.tables[fileNum]
	delete(tc.tables, fileNum)
	tc.mu.Unlock()
	if e != nil {
		closeEntry(e)
	}
}

// close closes every reader and refuses later opens. The DB calls it once
// no read pins a version.
func (tc *tableCache) close() {
	tc.mu.Lock()
	tables := tc.tables
	tc.tables = make(map[uint64]*tableEntry)
	tc.closed = true
	tc.mu.Unlock()
	for _, e := range tables {
		closeEntry(e)
	}
}

// closeEntry settles e — waiting out an open in flight, or marking one
// never started as failed — and closes its reader, if it has one.
func closeEntry(e *tableEntry) {
	e.once.Do(func() { e.err = ErrClosed })
	if e.r != nil {
		e.r.Close()
	}
}

// openNewTable opens a table that a flush or compaction has just written,
// before the edit that lists it commits, so the first read to reach it
// finds its reader, index and filter in memory. With paranoidChecks the job
// then walks the table through that reader (checkTable); a failed open or
// check is a paranoidError, retried because the table never reaches the
// tree. On any failure the table is discarded: its reader closed, its file
// deleted.
func (d *DB) openNewTable(meta *manifest.FileMeta) error {
	r, err := d.tc.get(meta.FileNum)
	if d.opts.paranoidChecks {
		if err == nil {
			err = checkTable(r, meta)
		}
		if err != nil {
			err = &paranoidError{fileNum: meta.FileNum, err: err}
		}
	}
	if err != nil {
		d.removeOutputs([]*manifest.FileMeta{meta})
	}
	return err
}
