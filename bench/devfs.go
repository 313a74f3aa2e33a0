package main

import (
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"adcache/internal/vfs"
)

// The device profile: the repo's NVMe-class read cost (harness.ReadCost), a
// 1 GiB/s transfer rate, and for a sync the p50 of a real fsync on the
// reference sandbox's idle disk.
const (
	readAccess  = 40 * time.Microsecond
	readBytesPS = 1 << 30
	syncCost    = 100 * time.Microsecond
)

// fileKind classifies engine files by name so I/O is attributed to the WAL,
// the SSTables, or the rest (manifest and its temp files).
type fileKind int

const (
	kindSST fileKind = iota
	kindWAL
	kindOther
	nFileKinds
)

func kindOf(name string) fileKind {
	switch {
	case strings.HasSuffix(name, ".sst"):
		return kindSST
	case strings.HasSuffix(name, ".log"):
		return kindWAL
	}
	return kindOther
}

// The counters devFS keeps per file kind while tracing is on.
const (
	ioReadOps = iota
	ioReadBytes
	ioReadNanos
	ioSimNanos // device time charged to reads
	ioWriteOps
	ioWriteBytes
	ioWriteNanos
	ioSyncOps
	ioSyncNanos
	nIO
)

type ioStats [nIO]atomic.Int64

// ioSnapshot is a plain copy of ioStats.
type ioSnapshot [nIO]int64

func (s *ioStats) snapshot() (out ioSnapshot) {
	for i := range s {
		out[i] = s[i].Load()
	}
	return out
}

func (a ioSnapshot) sub(b ioSnapshot) ioSnapshot {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

// devFS is the benchmark's device, over the operating system's files. Writes
// are real writes into the page cache. A sync owes syncCost of device time in
// place of the real fsync: on the sandbox's shared disk the real one's p50
// moved between 80 and 320 us from one process start to the next, and the
// write workloads' throughput with it. With simulateReads set, every read
// additionally owes readAccess plus transfer at readBytesPS, so an SSTable
// block miss costs wall-clock time; with it off (serve_mixed) reads are raw
// OSFS, memory-mapped views included.
//
// Owed time is settled as vfs.LatencyFS settles it — accumulated as debt and
// slept off once it reaches a quantum, or at once for a sync — with two
// differences, both because this sandbox's time.Sleep cannot wake in under
// 1.1 ms. The sleep is a nanosleep system call, which blocks the thread as
// real I/O would and wakes within about 60 us, so the quantum is 100 us and
// not 2 ms: a reader holding the engine's lock sleeps for one or two reads'
// worth of device time, not fifty. And the measured overshoot of each sleep
// is credited against the next, so the time slept totals the time owed.
//
// While the tracer is on, every data call is timed and counted by file kind
// and one call in traceSample is kept as a span under the workload root.
// While it is off, calls pass through without a clock read.
type devFS struct {
	vfs.FS
	simulateReads bool
	// Device nanoseconds owed and not yet slept. Reads and syncs keep
	// separate accounts, or reads would ride free on the overshoot credit
	// of the far more frequent sync sleeps.
	readDebt, syncDebt atomic.Int64
	tr                 *tracer
	stats              [nFileKinds]ioStats
}

// settleQuantum is the least read debt worth a system call.
const settleQuantum = 100 * time.Microsecond

func newDevFS(simulateReads bool, tr *tracer) *devFS {
	return &devFS{FS: vfs.NewOS(), simulateReads: simulateReads, tr: tr}
}

// readCost is the device time an n-byte read owes.
func readCost(n int) int64 {
	return int64(readAccess) + int64(n)*int64(time.Second)/readBytesPS
}

// settle adds cost to debt and sleeps the debt off once it reaches quantum.
// A sync's quantum is zero: it returns only when the device is done.
func settle(debt *atomic.Int64, cost int64, quantum time.Duration) {
	owed := debt.Add(cost)
	if owed <= 0 || owed < int64(quantum) {
		return
	}
	debt.Add(-owed)
	start := time.Now()
	ts := syscall.NsecToTimespec(owed)
	_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep is credited below like any other
	debt.Add(owed - int64(time.Since(start)))
}

func (d *devFS) Create(name string) (vfs.File, error) {
	f, err := d.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return d.wrap(f, name), nil
}

func (d *devFS) Open(name string) (vfs.File, error) {
	f, err := d.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return d.wrap(f, name), nil
}

// wrap keeps the no-copy capability visible through the wrapper, as
// vfs.CountingFS does, so the engine's mmap read path stays reachable on the
// raw device. The simulated device hides it, as vfs.LatencyFS does: a read
// there is a ReadAt that pays device time.
func (d *devFS) wrap(f vfs.File, name string) vfs.File {
	df := devFile{File: f, fs: d, kind: kindOf(name)}
	if nc, ok := f.(vfs.NoCopyReaderAt); ok && !d.simulateReads {
		return &devFileNoCopy{devFile: df, nc: nc}
	}
	return &df
}

type devFile struct {
	vfs.File
	fs   *devFS
	kind fileKind
}

type devFileNoCopy struct {
	devFile
	nc vfs.NoCopyReaderAt
}

func (f *devFile) read(n int, start time.Time) {
	st := &f.fs.stats[f.kind]
	end := time.Now()
	st[ioReadOps].Add(1)
	st[ioReadBytes].Add(int64(n))
	st[ioReadNanos].Add(int64(end.Sub(start)))
	if f.fs.simulateReads {
		st[ioSimNanos].Add(readCost(n))
	}
	f.fs.tr.ioSpan(f.kind, "read", n, start, end)
}

func (f *devFile) readAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	if f.fs.simulateReads {
		settle(&f.fs.readDebt, readCost(n), settleQuantum)
	}
	return n, err
}

func (f *devFile) ReadAt(p []byte, off int64) (int, error) {
	if !f.fs.tr.on() {
		return f.readAt(p, off)
	}
	start := time.Now()
	n, err := f.readAt(p, off)
	f.read(n, start)
	return n, err
}

func (f *devFileNoCopy) ReadAtNoCopy(off, n int64) ([]byte, error) {
	if !f.fs.tr.on() {
		return f.nc.ReadAtNoCopy(off, n)
	}
	start := time.Now()
	p, err := f.nc.ReadAtNoCopy(off, n)
	f.read(len(p), start)
	return p, err
}

func (f *devFile) wrote(n int, start time.Time) {
	st := &f.fs.stats[f.kind]
	end := time.Now()
	st[ioWriteOps].Add(1)
	st[ioWriteBytes].Add(int64(n))
	st[ioWriteNanos].Add(int64(end.Sub(start)))
	f.fs.tr.ioSpan(f.kind, "write", n, start, end)
}

func (f *devFile) Write(p []byte) (int, error) {
	if !f.fs.tr.on() {
		return f.File.Write(p)
	}
	start := time.Now()
	n, err := f.File.Write(p)
	f.wrote(n, start)
	return n, err
}

func (f *devFile) WriteAt(p []byte, off int64) (int, error) {
	if !f.fs.tr.on() {
		return f.File.WriteAt(p, off)
	}
	start := time.Now()
	n, err := f.File.WriteAt(p, off)
	f.wrote(n, start)
	return n, err
}

func (f *devFile) Sync() error {
	if !f.fs.tr.on() {
		settle(&f.fs.syncDebt, int64(syncCost), 0)
		return nil
	}
	start := time.Now()
	settle(&f.fs.syncDebt, int64(syncCost), 0)
	end := time.Now()
	st := &f.fs.stats[f.kind]
	st[ioSyncOps].Add(1)
	st[ioSyncNanos].Add(int64(end.Sub(start)))
	f.fs.tr.ioSync(f.kind, start, end)
	return nil
}
