package vfs

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
	"time"
)

// writeFile creates name on fs with content, synced and closed, and syncs
// its directory.
func writeFile(t *testing.T, fs FS, name string, content []byte) {
	t.Helper()
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(content); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir(filepath.Dir(name)); err != nil {
		t.Fatal(err)
	}
}

func TestOSFSBasicOps(t *testing.T) {
	dir := t.TempDir()
	fs := NewOS()
	name := filepath.Join(dir, "a.txt")
	writeFile(t, fs, name, []byte("hello"))

	if !fs.Exists(name) {
		t.Fatal("created file does not exist")
	}
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	if size, err := f.Size(); err != nil || size != 5 {
		t.Fatalf("Size = %d, %v", size, err)
	}
	buf := make([]byte, 5)
	if _, err := f.ReadAt(buf, 0); err != nil || string(buf) != "hello" {
		t.Fatalf("ReadAt = %q, %v", buf, err)
	}
	f.Close()

	names, err := fs.List(dir)
	if err != nil || len(names) != 1 || names[0] != "a.txt" {
		t.Fatalf("List = %v, %v", names, err)
	}

	renamed := filepath.Join(dir, "b.txt")
	if err := fs.Rename(name, renamed); err != nil {
		t.Fatal(err)
	}
	if fs.Exists(name) || !fs.Exists(renamed) {
		t.Fatal("rename did not move the file")
	}
	if err := fs.Remove(renamed); err != nil {
		t.Fatal(err)
	}
	if fs.Exists(renamed) {
		t.Fatal("removed file still exists")
	}
}

func TestOSFSNotExistErrors(t *testing.T) {
	dir := t.TempDir()
	fs := NewOS()
	missing := filepath.Join(dir, "missing")
	var ne *NotExistError
	if _, err := fs.Open(missing); !errors.As(err, &ne) {
		t.Fatalf("Open(missing) = %v, want NotExistError", err)
	}
	if err := fs.Remove(missing); !errors.As(err, &ne) {
		t.Fatalf("Remove(missing) = %v, want NotExistError", err)
	}
}

func TestOSFSReadAtNoCopy(t *testing.T) {
	dir := t.TempDir()
	fs := NewOS()
	content := bytes.Repeat([]byte("0123456789"), 100)
	name := filepath.Join(dir, "t.dat")
	writeFile(t, fs, name, content)

	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	nc, ok := f.(NoCopyReaderAt)
	if !ok {
		t.Fatal("OSFS read handle does not expose NoCopyReaderAt")
	}
	view, err := nc.ReadAtNoCopy(10, 20)
	if err != nil {
		t.Skipf("mmap unavailable on this platform: %v", err)
	}
	if !bytes.Equal(view, content[10:30]) {
		t.Fatalf("view = %q", view)
	}
	// Out-of-range requests must fail rather than fault.
	for _, c := range [][2]int64{{-1, 4}, {0, -1}, {int64(len(content)), 1}, {0, int64(len(content)) + 1}} {
		if _, err := nc.ReadAtNoCopy(c[0], c[1]); err == nil {
			t.Fatalf("ReadAtNoCopy(%d, %d) out of range accepted", c[0], c[1])
		}
	}
	// Views must survive the file being unlinked (compaction deletes tables
	// that long-lived readers still serve from).
	if err := fs.Remove(name); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(view, content[10:30]) {
		t.Fatal("view corrupted after unlink")
	}
	if v2, err := nc.ReadAtNoCopy(0, 10); err != nil || !bytes.Equal(v2, content[:10]) {
		t.Fatalf("post-unlink view = %q, %v", v2, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := nc.ReadAtNoCopy(0, 10); err == nil {
		t.Fatal("ReadAtNoCopy succeeded on a closed file")
	}
}

func TestOSFSNoCopyEmptyFile(t *testing.T) {
	dir := t.TempDir()
	fs := NewOS()
	name := filepath.Join(dir, "empty")
	writeFile(t, fs, name, nil)
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// An empty file cannot be mapped; the capability must fail cleanly so
	// callers fall back to ReadAt.
	if _, err := f.(NoCopyReaderAt).ReadAtNoCopy(0, 0); err == nil {
		t.Fatal("mapped an empty file")
	}
}

// TestCountingForwardsNoCopy checks the capability-picking wrapper: the
// engine wraps every FS in CountingFS, and no-copy views must both survive
// the wrapping and count as read ops.
func TestCountingForwardsNoCopy(t *testing.T) {
	dir := t.TempDir()
	counting := NewCounting(NewOS())
	content := bytes.Repeat([]byte("x"), 4096)
	name := filepath.Join(dir, "t.dat")
	writeFile(t, counting, name, content)

	f, err := counting.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	nc, ok := f.(NoCopyReaderAt)
	if !ok {
		t.Fatal("CountingFS over OSFS dropped NoCopyReaderAt")
	}
	before := counting.Stats.Snapshot()
	view, err := nc.ReadAtNoCopy(0, 1024)
	if err != nil {
		t.Skipf("mmap unavailable: %v", err)
	}
	if len(view) != 1024 {
		t.Fatalf("view length = %d", len(view))
	}
	delta := counting.Stats.Snapshot().Sub(before)
	if delta.ReadOps != 1 || delta.ReadBytes != 1024 {
		t.Fatalf("no-copy read not counted: %+v", delta)
	}
}

// TestWrappersFallBackToReadAt checks that fault, latency and crash wrappers
// over OSFS do not advertise the no-copy capability (their files intercept
// ReadAt, so serving unintercepted views would bypass them) while plain
// reads keep working through the composed stack.
func TestWrappersFallBackToReadAt(t *testing.T) {
	dir := t.TempDir()
	content := []byte("wrapped content")

	wrappers := map[string]FS{
		"fault":               NewFault(NewOS()),
		"latency":             NewLatency(NewOS(), time.Microsecond, 0),
		"crash":               NewCrash(NewOS()),
		"counting-over-fault": NewCounting(NewFault(NewOS())),
	}
	for wname, fs := range wrappers {
		name := filepath.Join(dir, wname+".dat")
		writeFile(t, fs, name, content)
		f, err := fs.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := f.(NoCopyReaderAt); ok {
			t.Errorf("%s wrapper over OSFS leaked NoCopyReaderAt", wname)
		}
		buf := make([]byte, len(content))
		if _, err := f.ReadAt(buf, 0); err != nil || !bytes.Equal(buf, content) {
			t.Errorf("%s: ReadAt = %q, %v", wname, buf, err)
		}
		f.Close()
	}

	// The counting stack still counts through the composition.
	cfs := wrappers["counting-over-fault"].(*CountingFS)
	if ops := cfs.Stats.ReadOps.Load(); ops == 0 {
		t.Error("composed counting stack recorded no reads")
	}
}

// TestCrashFSRootScopedOverOS runs the crash model on the real file system:
// SetRoot bounds the post-crash enumeration to the test directory, synced
// contents survive, unsynced tails are lost.
func TestCrashFSRootScopedOverOS(t *testing.T) {
	dir := t.TempDir()
	crash := NewCrash(NewOS())
	crash.SetRoot(dir)

	durable := filepath.Join(dir, "durable")
	writeFile(t, crash, durable, []byte("synced"))

	torn := filepath.Join(dir, "torn")
	f, err := crash.Create(torn)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("synced-part")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("-unsynced-tail")); err != nil {
		t.Fatal(err)
	}
	if err := crash.SyncDir(dir); err != nil {
		t.Fatal(err)
	}

	disk := crash.Crash(CrashOptions{})
	df, err := disk.Open(durable)
	if err != nil {
		t.Fatalf("durable file lost: %v", err)
	}
	if got := readAll(df); string(got) != "synced" {
		t.Fatalf("durable contents = %q", got)
	}
	tf, err := disk.Open(torn)
	if err != nil {
		t.Fatalf("torn file lost entirely: %v", err)
	}
	if got := readAll(tf); string(got) != "synced-part" {
		t.Fatalf("unsynced tail survived: %q", got)
	}
	if _, err := crash.Open(durable); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash Open = %v, want ErrCrashed", err)
	}
}

// TestOSFSDirSyncOnlyOnSyncDir: Create, Remove and Rename leave the
// directory unsynced; SyncDir fsyncs it once.
func TestOSFSDirSyncOnlyOnSyncDir(t *testing.T) {
	dir := t.TempDir()
	fs := NewOS()
	before := dirSyncs.Load()
	f, err := fs.Create(filepath.Join(dir, "a"))
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := fs.Rename(filepath.Join(dir, "a"), filepath.Join(dir, "b")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove(filepath.Join(dir, "b")); err != nil {
		t.Fatal(err)
	}
	if n := dirSyncs.Load() - before; n != 0 {
		t.Fatalf("Create, Rename and Remove issued %d directory syncs, want 0", n)
	}
	if err := fs.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	if n := dirSyncs.Load() - before; n != 1 {
		t.Fatalf("SyncDir issued %d directory syncs, want 1", n)
	}
}
