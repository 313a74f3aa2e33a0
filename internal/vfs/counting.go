package vfs

import "sync/atomic"

// Stats accumulates I/O counts. All fields are manipulated atomically; a
// single Stats value may be shared by many files and goroutines.
//
// ReadOps is the number of read calls issued against data files. A table
// iterator may fetch several adjacent blocks with one call, so this counts
// device calls; blocks ("SST reads" in the paper) are counted by the engine
// (lsm.DB.QueryBlockReads).
type Stats struct {
	ReadOps    atomic.Int64
	ReadBytes  atomic.Int64
	WriteOps   atomic.Int64
	WriteBytes atomic.Int64
}

// Snapshot returns a point-in-time copy of the counters.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		ReadOps:    s.ReadOps.Load(),
		ReadBytes:  s.ReadBytes.Load(),
		WriteOps:   s.WriteOps.Load(),
		WriteBytes: s.WriteBytes.Load(),
	}
}

// StatsSnapshot is an immutable copy of Stats counters.
type StatsSnapshot struct {
	ReadOps    int64
	ReadBytes  int64
	WriteOps   int64
	WriteBytes int64
}

// Sub returns the delta s - prev, for per-window accounting.
func (s StatsSnapshot) Sub(prev StatsSnapshot) StatsSnapshot {
	return StatsSnapshot{
		ReadOps:    s.ReadOps - prev.ReadOps,
		ReadBytes:  s.ReadBytes - prev.ReadBytes,
		WriteOps:   s.WriteOps - prev.WriteOps,
		WriteBytes: s.WriteBytes - prev.WriteBytes,
	}
}

// CountingFS wraps an FS, counting every read and write issued through files
// it opens or creates.
type CountingFS struct {
	FS
	Stats *Stats
}

// NewCounting wraps fs with a fresh Stats accumulator.
func NewCounting(fs FS) *CountingFS {
	return &CountingFS{FS: fs, Stats: &Stats{}}
}

// Create implements FS.
func (c *CountingFS) Create(name string) (File, error) {
	f, err := c.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return wrapCounting(f, c.Stats), nil
}

// Open implements FS.
func (c *CountingFS) Open(name string) (File, error) {
	f, err := c.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return wrapCounting(f, c.Stats), nil
}

// wrapCounting picks the wrapper type by capability: a file that can serve
// pinned no-copy views keeps that capability through the counting layer
// (the engine's table cache opens every table through CountingFS, so
// dropping it here would make OSFS memory maps unreachable). Files without it get the plain wrapper, so
// a type assertion on the wrapped file still reports the truth.
func wrapCounting(f File, stats *Stats) File {
	cf := countingFile{File: f, stats: stats}
	if nc, ok := f.(NoCopyReaderAt); ok {
		return &countingFileNoCopy{countingFile: cf, nc: nc}
	}
	return &cf
}

type countingFile struct {
	File
	stats *Stats
}

// countingFileNoCopy additionally forwards ReadAtNoCopy, counting each
// no-copy view served as one read op (it is one block read — the paper's
// "SST reads" metric must not go dark under mmap).
type countingFileNoCopy struct {
	countingFile
	nc NoCopyReaderAt
}

func (f *countingFileNoCopy) ReadAtNoCopy(off, n int64) ([]byte, error) {
	p, err := f.nc.ReadAtNoCopy(off, n)
	if err != nil {
		return nil, err
	}
	f.stats.ReadOps.Add(1)
	f.stats.ReadBytes.Add(int64(len(p)))
	return p, nil
}

func (f *countingFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.stats.ReadOps.Add(1)
	f.stats.ReadBytes.Add(int64(n))
	return n, err
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.stats.WriteOps.Add(1)
	f.stats.WriteBytes.Add(int64(n))
	return n, err
}

func (f *countingFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	f.stats.WriteOps.Add(1)
	f.stats.WriteBytes.Add(int64(n))
	return n, err
}
