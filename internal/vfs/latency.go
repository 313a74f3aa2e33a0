package vfs

import (
	"sync/atomic"
	"time"
)

// LatencyFS wraps an FS and charges every data operation a simulated device
// cost: a fixed per-operation access latency plus transfer time at a fixed
// bandwidth. Layered over MemFS it turns the in-memory store into a
// machine-independent model of a real drive, which the compaction benchmark
// uses to measure I/O-overlap effects (parallel subcompactions hide device
// waits behind merge compute even on a single core). Metadata operations are
// free: the LSM's data path dominates on real devices too.
//
// Charges accumulate as per-file debt and are slept off in chunks of at
// least minSleep: the OS timer cannot deliver microsecond sleeps, so paying
// per call would overcharge every operation by the timer slack. Debt
// batching keeps the simulated totals accurate while issuing sleeps long
// enough for the timer to honour.
type LatencyFS struct {
	fs          FS
	access      time.Duration
	bytesPerSec int64
}

// minSleep is the smallest sleep actually issued; accumulated debt below it
// is carried forward on the file.
const minSleep = 2 * time.Millisecond

// NewLatency wraps fs with a simulated device: access is charged per read or
// write call, and transfers are paced at bytesPerSec (<= 0 disables pacing).
func NewLatency(fs FS, access time.Duration, bytesPerSec int64) *LatencyFS {
	return &LatencyFS{fs: fs, access: access, bytesPerSec: bytesPerSec}
}

func (l *LatencyFS) Create(name string) (File, error) {
	f, err := l.fs.Create(name)
	if err != nil {
		return nil, err
	}
	return &latencyFile{f: f, fs: l}, nil
}

func (l *LatencyFS) Open(name string) (File, error) {
	f, err := l.fs.Open(name)
	if err != nil {
		return nil, err
	}
	return &latencyFile{f: f, fs: l}, nil
}

func (l *LatencyFS) Remove(name string) error             { return l.fs.Remove(name) }
func (l *LatencyFS) Rename(oldname, newname string) error { return l.fs.Rename(oldname, newname) }
func (l *LatencyFS) List(dir string) ([]string, error)    { return l.fs.List(dir) }
func (l *LatencyFS) MkdirAll(dir string) error            { return l.fs.MkdirAll(dir) }
func (l *LatencyFS) Exists(name string) bool              { return l.fs.Exists(name) }
func (l *LatencyFS) SyncDir(dir string) error             { return l.fs.SyncDir(dir) }

type latencyFile struct {
	f    File
	fs   *LatencyFS
	debt atomic.Int64 // simulated nanoseconds owed but not yet slept
}

// charge adds the simulated cost of an n-byte transfer to the file's debt
// and sleeps it off once it reaches minSleep. flush forces the sleep (Sync
// settles all outstanding debt, like a real drive draining its queue).
func (f *latencyFile) charge(n int, flush bool) {
	l := f.fs
	d := int64(l.access)
	if l.bytesPerSec > 0 {
		d += int64(n) * int64(time.Second) / l.bytesPerSec
	}
	owed := f.debt.Add(d)
	if owed < int64(minSleep) && !flush {
		return
	}
	if f.debt.CompareAndSwap(owed, 0) {
		time.Sleep(time.Duration(owed))
	}
}

func (f *latencyFile) Write(p []byte) (int, error) {
	f.charge(len(p), false)
	return f.f.Write(p)
}

func (f *latencyFile) WriteAt(p []byte, off int64) (int, error) {
	f.charge(len(p), false)
	return f.f.WriteAt(p, off)
}

func (f *latencyFile) ReadAt(p []byte, off int64) (int, error) {
	f.charge(len(p), false)
	return f.f.ReadAt(p, off)
}

func (f *latencyFile) Sync() error {
	f.charge(0, true)
	return f.f.Sync()
}

func (f *latencyFile) Close() error         { return f.f.Close() }
func (f *latencyFile) Size() (int64, error) { return f.f.Size() }
