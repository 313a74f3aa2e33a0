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
// only become *durable* when the file is synced: each file carries a durable
// snapshot that Sync refreshes with the file's full current contents.
//
// Syncs may overlap each other and writes to the same file. A Sync makes
// durable the bytes present when it began — not bytes another goroutine
// appends while it runs — and the durable length only grows, so an earlier
// sync finishing after a later one cannot shrink it.
//
// Namespace operations (create, remove, rename) become durable only at a
// SyncDir of their directory, which makes every such change in the
// directory durable at once. A crash undoes the rest: an unsynced create
// vanishes even if its data was synced, an unsynced remove comes back with
// the file's durable contents, and an unsynced rename reverts. Creating
// over an existing name leaves the old file in the durable directory until
// the SyncDir.
//
// A crash can be triggered two ways:
//
//   - ArmCrash(n): the first n durability-relevant operations (Create,
//     Remove, Rename, SyncDir, Write, WriteAt, Sync) succeed; operation n+1
//     fails with ErrCrashed and the device dies — every later operation also
//     returns ErrCrashed. Sweeping n over a workload's full operation count
//     visits every crash window the engine has.
//   - Calling Crash directly at any quiescent point.
//
// Crash materialises the post-crash disk as a fresh *MemFS: every durable
// directory entry survives with its file's durable snapshot, and the
// unsynced tail is discarded — or, per CrashOptions, partially kept at
// sector granularity (a torn write) or kept entirely (the write happened to
// reach the platter before the cut, modelling reordered completion across
// files).
//
// Files that already existed on the inner FS before wrapping are treated as
// fully durable, contents and directory entry alike.
type CrashFS struct {
	inner FS

	mu sync.Mutex
	// live maps each path this wrapper has touched to its file as the live
	// namespace has it; durable maps paths to files as the durable
	// directories have them. A path in neither is untouched and as durable
	// as it is live.
	live    map[string]*crashState
	durable map[string]*crashState
	root    string // non-empty: bound the crash-time enumeration to this tree
	opCount int64
	armAt   int64 // fail the (armAt+1)-th op; negative = disarmed
	crashed bool
}

// crashState is one file: its durable contents and where the live namespace
// has it. Handles hold a pointer to it, so a rename keeps them attached.
type crashState struct {
	durable []byte
	path    string // live path; "" once removed or replaced
}

// NewCrash wraps inner with crash simulation, disarmed.
func NewCrash(inner FS) *CrashFS {
	return &CrashFS{
		inner:   inner,
		live:    make(map[string]*crashState),
		durable: make(map[string]*crashState),
		armAt:   -1,
	}
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

// adoptLocked starts tracking name if it exists on the inner FS but this
// wrapper has not touched it: such a file pre-existed the wrapper and is
// fully durable, so its current contents and entry become its durable
// state. Caller holds c.mu.
func (c *CrashFS) adoptLocked(name string) {
	if _, ok := c.live[name]; ok || !c.inner.Exists(name) {
		return
	}
	st := &crashState{path: name}
	if f, err := c.inner.Open(name); err == nil {
		st.durable = readAll(f)
		f.Close()
	}
	c.live[name] = st
	c.durable[name] = st
}

// unlinkLocked drops name from the live namespace. Caller holds c.mu.
func (c *CrashFS) unlinkLocked(name string) {
	if st, ok := c.live[name]; ok {
		st.path = ""
		delete(c.live, name)
	}
}

// Create implements FS.
func (c *CrashFS) Create(name string) (File, error) {
	if err := c.op(); err != nil {
		return nil, err
	}
	name = clean(name)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.adoptLocked(name)
	f, err := c.inner.Create(name)
	if err != nil {
		return nil, err
	}
	c.unlinkLocked(name)
	st := &crashState{path: name}
	c.live[name] = st
	return &crashFile{File: f, fs: c, st: st}, nil
}

// Open implements FS.
func (c *CrashFS) Open(name string) (File, error) {
	if err := c.readGate(); err != nil {
		return nil, err
	}
	name = clean(name)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.adoptLocked(name)
	f, err := c.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &crashFile{File: f, fs: c, st: c.live[name]}, nil
}

// Remove implements FS. The removal is durable at the next SyncDir.
func (c *CrashFS) Remove(name string) error {
	if err := c.op(); err != nil {
		return err
	}
	name = clean(name)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.adoptLocked(name)
	if err := c.inner.Remove(name); err != nil {
		return err
	}
	c.unlinkLocked(name)
	return nil
}

// Rename implements FS. The rename is atomic and durable at the next
// SyncDir; the renamed file's durable contents are whatever had been synced.
func (c *CrashFS) Rename(oldname, newname string) error {
	if err := c.op(); err != nil {
		return err
	}
	oldname, newname = clean(oldname), clean(newname)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.adoptLocked(oldname)
	c.adoptLocked(newname)
	if err := c.inner.Rename(oldname, newname); err != nil {
		return err
	}
	st := c.live[oldname]
	delete(c.live, oldname)
	c.unlinkLocked(newname)
	if st != nil {
		st.path = newname
		c.live[newname] = st
	}
	return nil
}

// SyncDir implements FS: every create, remove and rename done so far in dir
// becomes durable.
func (c *CrashFS) SyncDir(dir string) error {
	if err := c.op(); err != nil {
		return err
	}
	if err := c.inner.SyncDir(dir); err != nil {
		return err
	}
	dir = clean(dir)
	c.mu.Lock()
	defer c.mu.Unlock()
	for name, st := range c.live {
		if path.Dir(name) == dir {
			c.durable[name] = st
		}
	}
	for name := range c.durable {
		if _, ok := c.live[name]; !ok && path.Dir(name) == dir {
			delete(c.durable, name)
		}
	}
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
// MemFS: durable directory entries survive with their files' durable
// snapshots, unsynced tails are discarded or torn per opt. The CrashFS
// itself becomes unusable (every operation fails with ErrCrashed); reopen
// the database on the returned FS.
func (c *CrashFS) Crash(opt CrashOptions) *MemFS {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.crashed = true

	sector := opt.SectorSize
	if sector <= 0 {
		sector = 512
	}
	rng := rand.New(rand.NewSource(opt.Seed))

	// Deterministic iteration order: sorted durable paths, plus the
	// untouched ones the inner FS holds (pre-existing, fully durable).
	var names []string
	for name := range c.durable {
		names = append(names, name)
	}
	for _, name := range allFiles(c.inner, c.root) {
		_, live := c.live[name]
		_, durable := c.durable[name]
		if !live && !durable {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	out := NewMem()
	for _, name := range names {
		var content []byte
		st, tracked := c.durable[name]
		if !tracked {
			f, err := c.inner.Open(name)
			if err != nil {
				continue
			}
			content = readAll(f)
			f.Close()
		} else {
			content = st.durable
			// The unsynced tail is the bytes appended past the durable
			// snapshot of a file still in the live namespace. Unsynced
			// in-place rewrites of durable bytes (which the engine never
			// does) revert wholesale to the snapshot.
			var current []byte
			if st.path != "" {
				if f, err := c.inner.Open(st.path); err == nil {
					current = readAll(f)
					f.Close()
				}
			}
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
