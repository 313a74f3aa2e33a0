package lsm

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"adcache/internal/manifest"
	"adcache/internal/vfs"
)

// This file checks how version changes reach the disk: one manifest edit
// and one directory sync per flush, compaction and seal, committed with no
// engine lock held, and a WAL that never strands acknowledged writes behind
// a failed write.

// manifestGate parks one sync of the MANIFEST while armed: skip syncs pass
// first, the next announces itself on entered and waits for release.
type manifestGate struct {
	vfs.FS
	armed   atomic.Bool
	skip    atomic.Int32
	entered chan struct{}
	release chan struct{}
}

func (g *manifestGate) Create(name string) (vfs.File, error) {
	f, err := g.FS.Create(name)
	if err != nil || !strings.Contains(name, "MANIFEST") {
		return f, err
	}
	return &gatedManifest{File: f, g: g}, nil
}

type gatedManifest struct {
	vfs.File
	g *manifestGate
}

func (f *gatedManifest) Sync() error {
	if f.g.armed.Load() && f.g.skip.Add(-1) < 0 {
		f.g.armed.Store(false)
		f.g.entered <- struct{}{}
		<-f.g.release
	}
	return f.File.Sync()
}

// TestManifestOffLock: a flush's manifest edit is made durable with no
// engine lock held, so while the manifest sync is stuck in the device,
// Get, Scan and a Put that does not fill the memtable all complete.
func TestManifestOffLock(t *testing.T) {
	gate := &manifestGate{FS: vfs.NewMem(), entered: make(chan struct{}), release: make(chan struct{})}
	opts := testOptions(gate)
	opts.MemTableSize = 1 << 20
	opts.DisableAutoCompaction = true
	db := mustOpen(t, opts)
	defer db.Close()
	for i := 0; i < 200; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 200; i < 300; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}

	// Flush seals (the first manifest sync) and then flushes (the second).
	gate.skip.Store(1)
	gate.armed.Store(true)
	flushed := make(chan error, 1)
	go func() { flushed <- db.Flush() }()
	select {
	case <-gate.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the flush never synced the manifest")
	}
	done := make(chan error, 1)
	go func() {
		if v, ok, err := db.Get(key(7)); err != nil || !ok || string(v) != string(val(7)) {
			done <- fmt.Errorf("Get: %q ok=%v err=%v", v, ok, err)
			return
		}
		if kvs, err := db.Scan(key(250), 10); err != nil || len(kvs) != 10 {
			done <- fmt.Errorf("Scan: %d results, err=%v", len(kvs), err)
			return
		}
		done <- db.Put(key(1000), val(1000))
	}()
	var opErr error
	blocked := false
	select {
	case opErr = <-done:
	case <-time.After(5 * time.Second):
		blocked = true
	}
	close(gate.release)
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	if blocked {
		opErr = <-done
		t.Error("Get/Scan/Put blocked behind the manifest sync")
	}
	if opErr != nil {
		t.Fatal(opErr)
	}
}

// dirSyncCounter counts directory syncs and removals.
type dirSyncCounter struct {
	vfs.FS
	syncs, removes atomic.Int64
}

func (c *dirSyncCounter) SyncDir(dir string) error {
	c.syncs.Add(1)
	return c.FS.SyncDir(dir)
}

func (c *dirSyncCounter) Remove(name string) error {
	c.removes.Add(1)
	return c.FS.Remove(name)
}

// TestDirSyncsPerEdit: on the real file system, each seal, flush and
// compaction syncs the directory exactly once, and removing retired WALs
// and compacted tables syncs it not at all.
func TestDirSyncsPerEdit(t *testing.T) {
	fs := &dirSyncCounter{FS: vfs.NewOS()}
	opts := testOptions(fs)
	opts.Dir = filepath.Join(t.TempDir(), "db")
	opts.MemTableSize = 1 << 20
	opts.DisableAutoCompaction = true
	db := mustOpen(t, opts)
	defer db.Close()
	if n := fs.syncs.Load(); n != 1 {
		t.Fatalf("Open made %d directory syncs, want 1", n)
	}

	for f := 0; f < l0CompactTrigger; f++ {
		for i := 0; i < 200; i++ {
			if err := db.Put(key(i), val(f*1000+i)); err != nil {
				t.Fatal(err)
			}
		}
		syncs, removes := fs.syncs.Load(), fs.removes.Load()
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		if n := fs.syncs.Load() - syncs; n != 2 {
			t.Fatalf("Flush (one seal, one flush) made %d directory syncs, want 2", n)
		}
		if n := fs.removes.Load() - removes; n != 1 {
			t.Fatalf("Flush removed %d files, want its WAL", n)
		}
	}

	m0 := db.Metrics()
	syncs, removes := fs.syncs.Load(), fs.removes.Load()
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	m1 := db.Metrics()
	compactions := m1.Compactions - m0.Compactions
	if compactions == 0 {
		t.Fatal("Compact ran no compaction")
	}
	if n := fs.syncs.Load() - syncs; n != compactions {
		t.Fatalf("%d compactions made %d directory syncs", compactions, n)
	}
	if fs.removes.Load() == removes {
		t.Fatal("compaction removed no table")
	}
}

// TestWALShortWriteDoesNotStrandLaterGroups: a WAL write that persists
// part of its group and fails must not leave later groups appended behind
// the torn bytes, where replay would stop before reaching them. Every put
// acknowledged after the failure survives a crash.
func TestWALShortWriteDoesNotStrandLaterGroups(t *testing.T) {
	cfs := vfs.NewCrash(vfs.NewMem())
	fault := vfs.NewFault(cfs)
	opts := testOptions(fault)
	opts.MemTableSize = 1 << 20
	db := mustOpen(t, opts)
	for i := 0; i < 10; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	fault.Target(".log")
	fault.ShortWrites(1)
	if err := db.Put(key(100), val(100)); err == nil {
		t.Fatal("the short WAL write was not reported")
	}
	const n = 20
	for i := 200; i < 200+n; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatalf("put after the failed write: %v", err)
		}
	}

	recovered := cfs.Crash(vfs.CrashOptions{})
	db.Close()
	db2 := mustOpen(t, testOptions(recovered))
	defer db2.Close()
	for i := 0; i < 200+n; i++ {
		if i == 10 {
			i = 200
		}
		if v, ok, err := db2.Get(key(i)); err != nil || !ok || string(v) != string(val(i)) {
			t.Fatalf("acked key %d after crash: %q ok=%v err=%v", i, v, ok, err)
		}
	}
}

// legacyManifest is the JSON MANIFEST schema that came before the edit log.
type legacyManifest struct {
	NextFileNum uint64            `json:"next_file_num"`
	LastSeq     uint64            `json:"last_seq"`
	WALNum      uint64            `json:"wal_num"`
	WALNums     []uint64          `json:"wal_nums,omitempty"`
	Levels      [][]legacyFileRec `json:"levels"`
}

type legacyFileRec struct {
	FileNum    uint64 `json:"file_num"`
	Size       uint64 `json:"size"`
	NumEntries uint64 `json:"num_entries"`
	Smallest   []byte `json:"smallest"`
	Largest    []byte `json:"largest"`
}

// writeLegacyManifest replaces dir's MANIFEST with the same state in the
// old JSON schema.
func writeLegacyManifest(t *testing.T, fs vfs.FS, dir string) {
	t.Helper()
	edits, err := manifest.ReadFile(fs, dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := manifest.Fold(edits)
	if err != nil {
		t.Fatal(err)
	}
	js := legacyManifest{NextFileNum: st.NextFileNum, LastSeq: st.LastSeq, WALNums: st.WALNums}
	if len(st.WALNums) > 0 {
		js.WALNum = st.WALNums[len(st.WALNums)-1]
	}
	for _, level := range st.Version.Levels {
		recs := []legacyFileRec{}
		for _, f := range level {
			recs = append(recs, legacyFileRec{f.FileNum, f.Size, f.NumEntries, f.Smallest, f.Largest})
		}
		js.Levels = append(js.Levels, recs)
	}
	data, err := json.Marshal(js)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create(dir + "/MANIFEST")
	if err != nil {
		t.Fatal(err)
	}
	f.Write(data)
	f.Close()
}

// TestJSONManifestUpgrade: a database whose MANIFEST is in the old JSON
// schema opens with every table and unflushed write, leaves a MANIFEST in
// the log format, and reopens from it.
func TestJSONManifestUpgrade(t *testing.T) {
	fs := vfs.NewMem()
	opts := testOptions(fs)
	db := mustOpen(t, opts)
	for i := 0; i < 2000; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 2000; i < 2050; i++ { // left in the WAL
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	writeLegacyManifest(t, fs, opts.Dir)

	check := func(what string) {
		db := mustOpen(t, opts)
		defer db.Close()
		if _, err := db.VerifyIntegrity(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		for i := 0; i < 2050; i++ {
			if v, ok, err := db.Get(key(i)); err != nil || !ok || string(v) != string(val(i)) {
				t.Fatalf("%s: key %d: %q ok=%v err=%v", what, i, v, ok, err)
			}
		}
	}
	check("open on the JSON manifest")
	f, err := fs.Open(opts.Dir + "/MANIFEST")
	if err != nil {
		t.Fatal(err)
	}
	head := make([]byte, 1)
	f.ReadAt(head, 0)
	f.Close()
	if head[0] == '{' {
		t.Fatal("the MANIFEST is still JSON after an open")
	}
	check("reopen on the upgraded manifest")
}
