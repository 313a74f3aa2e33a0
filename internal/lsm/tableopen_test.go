package lsm

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"adcache/internal/cache/lru"
	"adcache/internal/vfs"
)

// tableFS tracks the .sst handles opened for reading and not yet closed,
// and can fail the Create of the nth table from when it is armed.
type tableFS struct {
	vfs.FS

	mu       sync.Mutex
	open     map[string]int // path -> read handles not yet closed
	opened   map[string]bool
	creates  []string // tables created, in order
	failNext int      // fail the failNext-th table Create from now (0: off)
}

func newTableFS(fs vfs.FS) *tableFS {
	return &tableFS{FS: fs, open: map[string]int{}, opened: map[string]bool{}}
}

func (t *tableFS) Create(name string) (vfs.File, error) {
	if strings.HasSuffix(name, ".sst") {
		t.mu.Lock()
		t.creates = append(t.creates, name)
		fail := false
		if t.failNext > 0 {
			t.failNext--
			fail = t.failNext == 0
		}
		t.mu.Unlock()
		if fail {
			return nil, vfs.ErrInjected
		}
	}
	return t.FS.Create(name)
}

func (t *tableFS) Open(name string) (vfs.File, error) {
	f, err := t.FS.Open(name)
	if err != nil || !strings.HasSuffix(name, ".sst") {
		return f, err
	}
	t.mu.Lock()
	t.open[name]++
	t.opened[name] = true
	t.mu.Unlock()
	return &trackedFile{File: f, fs: t, name: name}, nil
}

// stillOpen reports whether name was opened for reading and is not closed.
func (t *tableFS) stillOpen(name string) (opened, open bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.opened[name], t.open[name] > 0
}

type trackedFile struct {
	vfs.File
	fs   *tableFS
	name string
	once sync.Once
}

func (f *trackedFile) Close() error {
	f.once.Do(func() {
		f.fs.mu.Lock()
		f.fs.open[f.name]--
		f.fs.mu.Unlock()
	})
	return f.File.Close()
}

// requireDiscarded fails unless the table at fileNum is gone: no
// table-cache entry, no read handle left open, no file.
func requireDiscarded(t *testing.T, db *DB, fs *tableFS, fileNum uint64) {
	t.Helper()
	path := sstPath(db.opts.Dir, fileNum)
	db.tc.mu.RLock()
	_, cached := db.tc.tables[fileNum]
	db.tc.mu.RUnlock()
	if cached {
		t.Errorf("table %06d still has a table-cache entry", fileNum)
	}
	opened, open := fs.stillOpen(path)
	if !opened {
		t.Errorf("table %06d was never opened: the job must open its output", fileNum)
	}
	if open {
		t.Errorf("table %06d still has an open file", fileNum)
	}
	if fs.Exists(path) {
		t.Errorf("table %06d still exists", fileNum)
	}
}

// TestForegroundReadsOpenNoTable pins that the job that writes a table
// opens it: after flushes and compactions on the background engine, Gets
// and scans that reach every live table open none.
func TestForegroundReadsOpenNoTable(t *testing.T) {
	db := mustOpen(t, testOptions(vfs.NewMem()))
	defer db.Close()
	const n = 6000
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3*n; i++ {
		k := rng.Intn(n)
		if err := db.Put(key(k), val(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	m := db.Metrics()
	live := 0
	for _, files := range m.LevelFiles {
		live += files
	}
	if m.Flushes == 0 || m.Compactions == 0 || live < 4 {
		t.Fatalf("flushes=%d compactions=%d live tables=%d: the load must flush, compact and leave several tables",
			m.Flushes, m.Compactions, live)
	}

	before := m.TableOpens
	for i := 0; i < n; i++ {
		if _, _, err := db.Get(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Scan(nil, n); err != nil {
		t.Fatal(err)
	}
	if after := db.Metrics().TableOpens; after != before {
		t.Fatalf("foreground reads opened %d tables", after-before)
	}
}

// TestFailedJobsDiscardTheirTables pins the failure paths of the job that
// opens its own output: a table the paranoid check rejects, and the first
// output of a compaction aborted by a failed create, each leave no
// table-cache entry, no open file and no file.
func TestFailedJobsDiscardTheirTables(t *testing.T) {
	t.Run("paranoid", func(t *testing.T) {
		fault := vfs.NewFault(vfs.NewMem())
		fs := newTableFS(fault)
		opts := testOptions(fs)
		opts.InlineCompaction = true
		opts.paranoidChecks = true
		db := mustOpen(t, opts)
		defer db.Close()
		for i := 0; i < 200; i++ {
			if err := db.Put(key(i), val(i)); err != nil {
				t.Fatal(err)
			}
		}
		fault.Target(".sst")
		fault.CorruptWrites(1)
		err := db.Flush()
		var pe *paranoidError
		if !errors.As(err, &pe) {
			t.Fatalf("Flush on a corrupting device: %v, want a paranoid reject", err)
		}
		requireDiscarded(t, db, fs, pe.fileNum)
		if err := db.Flush(); err != nil {
			t.Fatalf("retried Flush: %v", err)
		}
	})

	t.Run("aborted compaction", func(t *testing.T) {
		fs := newTableFS(vfs.NewMem())
		opts := testOptions(fs)
		opts.InlineCompaction = true
		opts.disableAutoCompaction = true
		db := mustOpen(t, opts)
		defer db.Close()
		// Overlapping L0 tables holding several output files' worth of
		// distinct keys.
		for r := 0; r < l0CompactTrigger; r++ {
			for i := r; i < 4000; i += l0CompactTrigger {
				if err := db.Put(key(i), val(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		fs.mu.Lock()
		first := len(fs.creates)
		fs.failNext = 2
		fs.mu.Unlock()
		if err := db.Compact(); !errors.Is(err, vfs.ErrInjected) {
			t.Fatalf("Compact with a failing second output: %v", err)
		}
		fs.mu.Lock()
		created := append([]string(nil), fs.creates[first:]...)
		fs.mu.Unlock()
		if len(created) != 2 {
			t.Fatalf("compaction created %v, want its first output and the failed second", created)
		}
		typ, fileNum := parseFileName(filepath.Base(created[0]))
		if typ != "sst" {
			t.Fatalf("unexpected table name %q", created[0])
		}
		requireDiscarded(t, db, fs, fileNum)
		if err := db.Compact(); err != nil {
			t.Fatalf("retried Compact: %v", err)
		}
		if _, err := db.VerifyIntegrity(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestNoMappingOfDeletedTables pins that a table's reader closes, and its
// memory map with it, when compaction deletes the table, and that Close
// releases the rest once the last read is done: a map of an unlinked file
// would keep its disk space.
// The block cache drops the no-copy views a closing reader served, so none
// is left aliasing a released map.
func TestNoMappingOfDeletedTables(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads /proc/self/maps")
	}
	dir := t.TempDir()
	opts := testOptions(vfs.NewOS())
	opts.Dir = dir
	bc := lru.NewBlockCache(8 << 20)
	opts.Strategy = &blockOnlyStrategy{cache: bc}
	db := mustOpen(t, opts)
	closed := false
	defer func() {
		if !closed {
			db.Close()
		}
	}()
	const n = 4000
	for round := 0; round < 4; round++ {
		for i := 0; i < n; i++ {
			if err := db.Put(key(i), val(round*n+i)); err != nil {
				t.Fatal(err)
			}
		}
		// Reads map every live table and fill the cache with views.
		if _, err := db.Scan(nil, n); err != nil {
			t.Fatal(err)
		}
		if err := db.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	if c := db.Metrics().Compactions; c < 4 {
		t.Fatalf("%d compactions, want at least 4", c)
	}
	if _, err := db.Scan(nil, n); err != nil {
		t.Fatal(err)
	}
	if got := tableMappings(t, dir, true); len(got) > 0 {
		t.Fatalf("after compaction, %d maps of deleted tables remain, e.g. %s", len(got), got[0])
	}
	if got := tableMappings(t, dir, false); len(got) == 0 {
		t.Fatal("no live table is mapped: the test reads no views")
	}
	// An iterator open across Close keeps the tables open until it is
	// released: it still reads every key through the maps.
	it, err := db.NewIter()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	closed = true
	if got := tableMappings(t, dir, false); len(got) == 0 {
		t.Fatal("Close released the maps under an open iterator")
	}
	count := 0
	for ok := it.First(); ok; ok = it.Next() {
		count++
	}
	it.Close()
	if count != n {
		t.Fatalf("iterator open across Close read %d keys, want %d", count, n)
	}
	if got := tableMappings(t, dir, false); len(got) > 0 {
		t.Fatalf("after Close and the last read, %d table maps remain, e.g. %s", len(got), got[0])
	}
	if s := bc.Stats(); s.Used != 0 {
		t.Fatalf("after Close the block cache holds %d bytes of views of closed maps", s.Used)
	}
}

// tableMappings returns the lines of /proc/self/maps that map a table in
// dir; with deleted, only those of unlinked files.
func tableMappings(t *testing.T, dir string, deleted bool) []string {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(string(maps), "\n") {
		if !strings.Contains(line, dir) || !strings.Contains(line, ".sst") {
			continue
		}
		if deleted && !strings.HasSuffix(line, "(deleted)") {
			continue
		}
		out = append(out, line)
	}
	return out
}
