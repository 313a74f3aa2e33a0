package vfs

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"path"
	"sort"
	"sync"
)

// ErrCrashed is returned by every operation on a CrashFS after its armed
// crash point has fired: the simulated device is gone, exactly as if the
// machine lost power mid-operation.
var ErrCrashed = errors.New("vfs: simulated crash")

// CrashFS wraps an FS with a power-failure model. All data flows through to
// the inner FS immediately (readers on the live handle see it), but bytes
// only become *durable* when the file is synced: each path carries a durable
// snapshot that Sync refreshes with the file's full current contents.
//
// Syncs may overlap each other and writes to the same file. A Sync makes
// durable the bytes present when it began — not bytes another goroutine
// appends while it runs — and the durable length only grows, so an earlier
// sync finishing after a later one cannot shrink it.
//
// A crash can be triggered two ways:
//
//   - ArmCrash(n): the first n durability-relevant operations (Create,
//     Remove, Rename, Write, WriteAt, Sync) succeed; operation n+1 fails
//     with ErrCrashed and the device dies — every later operation also
//     returns ErrCrashed. Sweeping n over a workload's full operation count
//     visits every crash window the engine has.
//   - Calling Crash directly at any quiescent point.
//
// Crash materialises the post-crash disk as a fresh *MemFS: for every file,
// the durable snapshot survives, the unsynced tail is discarded — or,
// per CrashOptions, partially kept at sector granularity (a torn write) or
// kept entirely (the write happened to reach the platter before the cut,
// modelling reordered completion across files). Namespace operations
// (create/remove/rename) are modelled as immediately durable, which matches
// the engine's usage: the manifest syncs file contents before its atomic
// rename, and WAL/SST files are created before any data that matters is
// acknowledged.
//
// Files that already existed on the inner FS before wrapping are treated as
// fully durable.
type CrashFS struct {
	inner FS

	mu      sync.Mutex
	files   map[string]*crashState
	root    string // non-empty: bound the crash-time enumeration to this tree
	opCount int64
	armAt   int64 // fail the (armAt+1)-th op; negative = disarmed
	crashed bool
}

// crashState tracks one path's durable contents. Handles hold a pointer to
// it, so Rename (which re-keys the map) keeps handles attached.
type crashState struct {
	durable []byte
}

// NewCrash wraps inner with crash simulation, disarmed.
func NewCrash(inner FS) *CrashFS {
	return &CrashFS{inner: inner, files: make(map[string]*crashState), armAt: -1}
}

// SetRoot bounds the crash-time file enumeration to the tree under dir.
// Required when the inner FS is the real OS file system: without a root,
// Crash would walk the machine's entire namespace looking for device
// contents. MemFS-backed wrappers don't need it.
func (c *CrashFS) SetRoot(dir string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.root = clean(dir)
}

// ArmCrash schedules the crash: the next n durability-relevant operations
// succeed and the one after fails with ErrCrashed, killing the device.
// ArmCrash(0) fails the very next operation. A negative n disarms.
func (c *CrashFS) ArmCrash(n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n < 0 {
		c.armAt = -1
		return
	}
	c.armAt = c.opCount + n
}

// OpCount reports the number of durability-relevant operations performed so
// far; a full workload's count bounds the crash-point sweep.
func (c *CrashFS) OpCount() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.opCount
}

// Crashed reports whether the armed crash point has fired.
func (c *CrashFS) Crashed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.crashed
}

// op gates one durability-relevant operation: it fails once the device has
// died and trips the armed crash point.
func (c *CrashFS) op() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return ErrCrashed
	}
	if c.armAt >= 0 && c.opCount >= c.armAt {
		c.crashed = true
		return ErrCrashed
	}
	c.opCount++
	return nil
}

// readGate fails reads on a dead device without counting them as ops.
func (c *CrashFS) readGate() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return ErrCrashed
	}
	return nil
}

// state returns the tracked durable state for name, creating it if the file
// pre-existed the wrapper (such files are fully durable as of first contact).
func (c *CrashFS) state(name string, preExistingDurable func() []byte) *crashState {
	name = clean(name)
	st, ok := c.files[name]
	if !ok {
		st = &crashState{}
		if preExistingDurable != nil {
			st.durable = preExistingDurable()
		}
		c.files[name] = st
	}
	return st
}

// Create implements FS. The truncation is modelled as immediately durable.
func (c *CrashFS) Create(name string) (File, error) {
	if err := c.op(); err != nil {
		return nil, err
	}
	f, err := c.inner.Create(name)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	st := &crashState{}
	c.files[clean(name)] = st
	c.mu.Unlock()
	return &crashFile{File: f, fs: c, st: st}, nil
}

// Open implements FS.
func (c *CrashFS) Open(name string) (File, error) {
	if err := c.readGate(); err != nil {
		return nil, err
	}
	f, err := c.inner.Open(name)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	st := c.state(name, func() []byte { return readAll(f) })
	c.mu.Unlock()
	return &crashFile{File: f, fs: c, st: st}, nil
}

// Remove implements FS. Deletion is modelled as immediately durable.
func (c *CrashFS) Remove(name string) error {
	if err := c.op(); err != nil {
		return err
	}
	if err := c.inner.Remove(name); err != nil {
		return err
	}
	c.mu.Lock()
	delete(c.files, clean(name))
	c.mu.Unlock()
	return nil
}

// Rename implements FS. The rename itself is immediately durable (and
// atomic); the renamed file's durable contents are whatever had been synced.
func (c *CrashFS) Rename(oldname, newname string) error {
	if err := c.op(); err != nil {
		return err
	}
	if err := c.inner.Rename(oldname, newname); err != nil {
		return err
	}
	c.mu.Lock()
	oldname, newname = clean(oldname), clean(newname)
	if st, ok := c.files[oldname]; ok {
		delete(c.files, oldname)
		c.files[newname] = st
	} else {
		delete(c.files, newname)
	}
	c.mu.Unlock()
	return nil
}

// List implements FS.
func (c *CrashFS) List(dir string) ([]string, error) {
	if err := c.readGate(); err != nil {
		return nil, err
	}
	return c.inner.List(dir)
}

// MkdirAll implements FS.
func (c *CrashFS) MkdirAll(dir string) error {
	if err := c.readGate(); err != nil {
		return err
	}
	return c.inner.MkdirAll(dir)
}

// Exists implements FS.
func (c *CrashFS) Exists(name string) bool {
	if c.Crashed() {
		return false
	}
	return c.inner.Exists(name)
}

// CrashOptions shapes what survives the power cut.
type CrashOptions struct {
	// Seed drives the torn-tail and keep-all random choices; a fixed seed
	// makes the crash deterministic. The zero seed is a valid seed.
	Seed int64
	// KeepTornTail keeps a random sector-aligned prefix of each file's
	// unsynced tail, modelling a write torn mid-flight. Off, the whole
	// unsynced tail is discarded.
	KeepTornTail bool
	// SectorSize is the torn-write granularity; 0 means 512 bytes.
	SectorSize int
	// KeepAllProb is the per-file probability that the entire unsynced tail
	// survives: the write completed just before the cut even though the
	// sync never happened, modelling reordered completion across files.
	KeepAllProb float64
}

// Crash simulates the power cut and returns the post-crash disk as a fresh
// MemFS: durable snapshots survive, unsynced tails are discarded or torn per
// opt. The CrashFS itself becomes unusable (every operation fails with
// ErrCrashed); reopen the database on the returned FS.
func (c *CrashFS) Crash(opt CrashOptions) *MemFS {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.crashed = true

	sector := opt.SectorSize
	if sector <= 0 {
		sector = 512
	}
	rng := rand.New(rand.NewSource(opt.Seed))

	// Deterministic iteration order: sorted live paths from the inner FS
	// (untracked paths pre-existed the wrapper and are fully durable).
	names := allFiles(c.inner, c.root)
	out := NewMem()
	for _, name := range names {
		f, err := c.inner.Open(name)
		if err != nil {
			continue
		}
		current := readAll(f)
		content := current
		if st, ok := c.files[name]; ok {
			content = st.durable
			// The unsynced tail is the bytes appended past the durable
			// snapshot. Unsynced in-place rewrites of durable bytes (which
			// the engine never does) revert wholesale to the snapshot.
			if len(current) > len(content) && bytes.Equal(current[:len(content)], content) {
				tail := current[len(content):]
				keep := 0
				if rng.Float64() < opt.KeepAllProb {
					keep = len(tail)
				} else if opt.KeepTornTail {
					keep = rng.Intn(len(tail)/sector+1) * sector
					if keep > len(tail) {
						keep = len(tail)
					}
				}
				content = append(append([]byte(nil), content...), tail[:keep]...)
			}
		}
		out.MkdirAll(path.Dir(name))
		nf, err := out.Create(name)
		if err != nil {
			continue
		}
		nf.Write(content)
		nf.Close()
	}
	return out
}

// allFiles enumerates every file path on fs: directly for MemFS, otherwise
// by recursive List from root (when set) or the generic "." and "/" roots.
func allFiles(fs FS, root string) []string {
	if m, ok := fs.(*MemFS); ok {
		return m.AllFiles()
	}
	seen := map[string]bool{}
	var out []string
	var walk func(dir string)
	walk = func(dir string) {
		if seen[dir] {
			return
		}
		seen[dir] = true
		names, err := fs.List(dir)
		if err != nil {
			return
		}
		for _, n := range names {
			full := path.Join(dir, n)
			if fs.Exists(full) {
				out = append(out, full)
			}
			walk(full)
		}
	}
	if root != "" && root != "." {
		walk(root)
	} else {
		walk(".")
		walk("/")
	}
	sort.Strings(out)
	return out
}

// readAll reads a file's entire contents via Size+ReadAt.
func readAll(f File) []byte {
	size, err := f.Size()
	if err != nil {
		return nil
	}
	return readPrefix(f, size)
}

// readPrefix reads the first size bytes of f.
func readPrefix(f File, size int64) []byte {
	if size == 0 {
		return nil
	}
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		return nil
	}
	return buf
}

// crashFile wraps a live handle, gating operations on device health and
// refreshing the path's durable snapshot on Sync.
type crashFile struct {
	File
	fs *CrashFS
	st *crashState
}

func (f *crashFile) Write(p []byte) (int, error) {
	if err := f.fs.op(); err != nil {
		return 0, err
	}
	return f.File.Write(p)
}

func (f *crashFile) WriteAt(p []byte, off int64) (int, error) {
	if err := f.fs.op(); err != nil {
		return 0, err
	}
	return f.File.WriteAt(p, off)
}

func (f *crashFile) ReadAt(p []byte, off int64) (int, error) {
	if err := f.fs.readGate(); err != nil {
		return 0, err
	}
	return f.File.ReadAt(p, off)
}

func (f *crashFile) Sync() error {
	if err := f.fs.op(); err != nil {
		return err
	}
	// What this sync covers is fixed when it begins.
	size, err := f.File.Size()
	if err != nil {
		return err
	}
	if err := f.File.Sync(); err != nil {
		return err
	}
	data := readPrefix(f.File, size)
	f.fs.mu.Lock()
	if len(data) >= len(f.st.durable) {
		f.st.durable = data
	}
	f.fs.mu.Unlock()
	return nil
}

func (f *crashFile) Close() error {
	if f.fs.Crashed() {
		return ErrCrashed
	}
	return f.File.Close()
}
