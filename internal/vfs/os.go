package vfs

import (
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// OSFS implements FS over the operating system's file system. It lets the
// engine and tools run against real disks; tests and experiments use MemFS.
//
// Create, Remove and Rename change the directory without syncing it: a crash
// can roll them back even when the file's own data was fsynced. SyncDir
// fsyncs the directory, making every such change in it durable at once, so
// a caller pays one directory sync per batch of namespace changes it needs
// to survive, not one per file.
//
// Files opened for reading additionally expose the NoCopyReaderAt
// capability, serving pinned zero-copy views from a lazily established
// memory map on platforms that support it.
type OSFS struct{}

// NewOS returns an OS-backed file system.
func NewOS() OSFS { return OSFS{} }

// dirSyncs counts the directory fsyncs OSFS has issued, so tests can check
// that SyncDir is the only operation that issues one.
var dirSyncs atomic.Int64

// SyncDir implements FS by fsyncing dir.
func (OSFS) SyncDir(dir string) error {
	dirSyncs.Add(1)
	d, err := os.Open(filepath.Clean(dir))
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Create implements FS.
func (OSFS) Create(name string) (File, error) {
	f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return &osFile{f: f}, nil
}

// Open implements FS. Files are opened read-only: every engine open (WAL
// replay, manifest load, SSTable reads) only reads, and a read-only
// descriptor can never corrupt an immutable table.
func (OSFS) Open(name string) (File, error) {
	f, err := os.OpenFile(name, os.O_RDONLY, 0)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, &NotExistError{Name: name}
		}
		return nil, err
	}
	return &osFile{f: f}, nil
}

// Remove implements FS.
func (OSFS) Remove(name string) error {
	err := os.Remove(name)
	if os.IsNotExist(err) {
		return &NotExistError{Name: name}
	}
	return err
}

// Rename implements FS.
func (OSFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

// List implements FS.
func (OSFS) List(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

// MkdirAll implements FS.
func (OSFS) MkdirAll(dir string) error { return os.MkdirAll(filepath.Clean(dir), 0o755) }

// Exists implements FS.
func (OSFS) Exists(name string) bool {
	_, err := os.Stat(name)
	return err == nil
}

// osFile is an OS-backed file. Read-only handles lazily memory-map the file
// on the first ReadAtNoCopy call (see mmap_unix.go); the mapping covers the
// whole file, which is safe because every no-copy consumer reads immutable,
// fully written tables.
type osFile struct {
	f *os.File

	mu      sync.Mutex
	mapped  []byte // established mapping; nil until first ReadAtNoCopy
	mapErr  error  // sticky mapping failure; don't retry a broken map
	mapDone bool
}

func (o *osFile) Write(p []byte) (int, error)              { return o.f.Write(p) }
func (o *osFile) WriteAt(p []byte, off int64) (int, error) { return o.f.WriteAt(p, off) }
func (o *osFile) ReadAt(p []byte, off int64) (int, error)  { return o.f.ReadAt(p, off) }
func (o *osFile) Sync() error                              { return o.f.Sync() }

func (o *osFile) Close() error {
	o.mu.Lock()
	if o.mapped != nil {
		munmap(o.mapped)
		o.mapped = nil
	}
	o.mapDone = true
	o.mapErr = os.ErrClosed
	o.mu.Unlock()
	return o.f.Close()
}

func (o *osFile) Size() (int64, error) {
	info, err := o.f.Stat()
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

// ReadAtNoCopy implements NoCopyReaderAt: it returns a slice of the file's
// memory map, established on first use. The view stays valid until Close —
// on Unix even an unlinked file's pages remain readable while mapped, so
// long-lived table readers survive compaction deleting their file.
func (o *osFile) ReadAtNoCopy(off, n int64) ([]byte, error) {
	o.mu.Lock()
	if !o.mapDone {
		o.mapped, o.mapErr = mmapFile(o.f)
		o.mapDone = true
	}
	data, err := o.mapped, o.mapErr
	o.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if off < 0 || n < 0 || off+n > int64(len(data)) {
		return nil, &outOfRangeError{off: off, n: n, size: int64(len(data))}
	}
	return data[off : off+n : off+n], nil
}

type outOfRangeError struct{ off, n, size int64 }

func (e *outOfRangeError) Error() string {
	return "vfs: no-copy read out of range"
}
