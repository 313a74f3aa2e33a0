// Package vfs provides the file-system abstraction used by the LSM engine.
//
// The engine never touches the OS directly; it goes through an FS value.
// MemFS is the default implementation used by tests, examples and the
// benchmark harness. CountingFS wraps any FS with atomic I/O accounting so
// experiments can report the paper's "SST reads" metric, and FaultFS injects
// failures for robustness tests.
package vfs

import (
	"fmt"
	"io"
	"path"
	"sort"
	"sync"
)

// File is a readable, writable, seek-free file handle. SSTables are written
// sequentially and read with ReadAt, mirroring how LSM engines use files.
type File interface {
	io.WriterAt
	io.ReaderAt
	io.Writer
	io.Closer
	// Sync flushes buffered data to stable storage.
	Sync() error
	// Size reports the current length of the file in bytes.
	Size() (int64, error)
}

// NoCopyReaderAt is an optional File capability: ReadAtNoCopy returns a
// pinned read-only view of n bytes at off that stays valid until the file is
// closed, without copying. OSFS implements it with a lazily established
// memory map; wrapper file systems that do not forward it (crash, fault,
// latency simulation) simply fall back to ReadAt — callers must probe with a
// type assertion and treat absence as "copy".
//
// Callers must not modify the returned slice, and must not use it after
// Close. An implementation may fail (for example an empty or unmappable
// file); callers should fall back to ReadAt on any error.
type NoCopyReaderAt interface {
	ReadAtNoCopy(off, n int64) ([]byte, error)
}

// FS is a minimal file system interface sufficient for an LSM engine.
type FS interface {
	// Create creates or truncates the named file for writing.
	Create(name string) (File, error)
	// Open opens the named file for reading.
	Open(name string) (File, error)
	// Remove deletes the named file.
	Remove(name string) error
	// Rename atomically renames a file.
	Rename(oldname, newname string) error
	// List returns the names (not full paths) of files under dir.
	List(dir string) ([]string, error)
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// Exists reports whether the named file exists.
	Exists(name string) bool
	// SyncDir makes the creates, removes and renames already done in dir
	// durable. Until it returns they may be undone by a crash, even for a
	// file whose own data was synced.
	SyncDir(dir string) error
}

// memFile is an in-memory file. It is safe for concurrent ReadAt once
// writing has finished, and guards growth with a mutex so that concurrent
// writers (WAL appends under DB lock, compaction writers) are safe too.
type memFile struct {
	mu   sync.RWMutex
	name string
	data []byte
}

func (f *memFile) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.data = append(f.data, p...)
	return len(p), nil
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if need := off + int64(len(p)); need > int64(len(f.data)) {
		grown := make([]byte, need)
		copy(grown, f.data)
		f.data = grown
	}
	copy(f.data[off:], p)
	return len(p), nil
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if off >= int64(len(f.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) Close() error { return nil }
func (f *memFile) Sync() error  { return nil }
func (f *memFile) Size() (int64, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return int64(len(f.data)), nil
}

// MemFS is an in-memory FS implementation. It is safe for concurrent use.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memFile
	dirs  map[string]bool
}

// NewMem returns an empty in-memory file system.
func NewMem() *MemFS {
	return &MemFS{files: make(map[string]*memFile), dirs: map[string]bool{"/": true, ".": true}}
}

// Create implements FS.
func (fs *MemFS) Create(name string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f := &memFile{name: name}
	fs.files[clean(name)] = f
	return f, nil
}

// Open implements FS.
func (fs *MemFS) Open(name string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[clean(name)]
	if !ok {
		return nil, &NotExistError{Name: name}
	}
	return f, nil
}

// Remove implements FS.
func (fs *MemFS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	name = clean(name)
	if _, ok := fs.files[name]; !ok {
		return &NotExistError{Name: name}
	}
	delete(fs.files, name)
	return nil
}

// Rename implements FS.
func (fs *MemFS) Rename(oldname, newname string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	oldname, newname = clean(oldname), clean(newname)
	f, ok := fs.files[oldname]
	if !ok {
		return &NotExistError{Name: oldname}
	}
	delete(fs.files, oldname)
	f.name = newname
	fs.files[newname] = f
	return nil
}

// List implements FS.
func (fs *MemFS) List(dir string) ([]string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	dir = clean(dir)
	var names []string
	for name := range fs.files {
		if path.Dir(name) == dir {
			names = append(names, path.Base(name))
		}
	}
	sort.Strings(names)
	return names, nil
}

// MkdirAll implements FS.
func (fs *MemFS) MkdirAll(dir string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.dirs[clean(dir)] = true
	return nil
}

// SyncDir implements FS. MemFS has no crash to survive.
func (fs *MemFS) SyncDir(string) error { return nil }

// Exists implements FS.
func (fs *MemFS) Exists(name string) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, ok := fs.files[clean(name)]
	return ok
}

// AllFiles returns the full paths of every file, sorted. CrashFS uses it to
// enumerate the disk when materialising a post-crash view.
func (fs *MemFS) AllFiles() []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	names := make([]string, 0, len(fs.files))
	for name := range fs.files {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TotalBytes reports the sum of all file sizes, used by experiments to size
// caches as a fraction of the database.
func (fs *MemFS) TotalBytes() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var total int64
	for _, f := range fs.files {
		total += int64(len(f.data))
	}
	return total
}

func clean(name string) string { return path.Clean(name) }

// NotExistError reports that a file does not exist.
type NotExistError struct{ Name string }

func (e *NotExistError) Error() string { return fmt.Sprintf("vfs: file %q does not exist", e.Name) }

// IsNotExist reports whether err indicates a missing file.
func IsNotExist(err error) bool {
	_, ok := err.(*NotExistError)
	return ok
}
