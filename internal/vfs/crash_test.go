package vfs

import (
	"bytes"
	"errors"
	"testing"
)

func crashRead(t *testing.T, fs FS, name string) []byte {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatalf("Open(%s): %v", name, err)
	}
	defer f.Close()
	return readAll(f)
}

// TestCrashDiscardsUnsynced checks the core contract: synced bytes survive a
// crash, unsynced bytes do not.
func TestCrashDiscardsUnsynced(t *testing.T) {
	cfs := NewCrash(NewMem())
	f, err := cfs.Create("db/a")
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("durable"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("-volatile"))

	g, _ := cfs.Create("db/b")
	g.Write([]byte("never-synced"))
	cfs.SyncDir("db")

	// The live view sees everything.
	if got := crashRead(t, cfs, "db/a"); string(got) != "durable-volatile" {
		t.Fatalf("live view = %q", got)
	}

	after := cfs.Crash(CrashOptions{})
	if got := crashRead(t, after, "db/a"); string(got) != "durable" {
		t.Fatalf("post-crash a = %q, want synced prefix only", got)
	}
	if got := crashRead(t, after, "db/b"); len(got) != 0 {
		t.Fatalf("post-crash b = %q, want empty (never synced)", got)
	}
}

// TestCrashPreExistingFilesDurable checks files present before wrapping
// survive untouched.
func TestCrashPreExistingFilesDurable(t *testing.T) {
	mem := NewMem()
	f, _ := mem.Create("db/old")
	f.Write([]byte("ancient"))
	f.Close()

	cfs := NewCrash(mem)
	after := cfs.Crash(CrashOptions{})
	if got := crashRead(t, after, "db/old"); string(got) != "ancient" {
		t.Fatalf("pre-existing file = %q", got)
	}
}

// TestCrashTornTailSectorAligned checks torn tails keep a sector-aligned
// prefix of the unsynced suffix, deterministically per seed.
func TestCrashTornTailSectorAligned(t *testing.T) {
	build := func(seed int64) []byte {
		cfs := NewCrash(NewMem())
		f, _ := cfs.Create("db/wal")
		cfs.SyncDir("db")
		f.Write(bytes.Repeat([]byte{'d'}, 100))
		f.Sync()
		f.Write(bytes.Repeat([]byte{'t'}, 4096))
		return crashRead(t, cfs.Crash(CrashOptions{Seed: seed, KeepTornTail: true, SectorSize: 512}), "db/wal")
	}
	sawTorn := false
	for seed := int64(0); seed < 20; seed++ {
		got := build(seed)
		tail := len(got) - 100
		if tail < 0 || tail > 4096 {
			t.Fatalf("seed %d: post-crash len %d out of range", seed, len(got))
		}
		if tail%512 != 0 {
			t.Fatalf("seed %d: torn tail %d not sector aligned", seed, tail)
		}
		if tail > 0 && tail < 4096 {
			sawTorn = true
		}
		again := build(seed)
		if !bytes.Equal(got, again) {
			t.Fatalf("seed %d: crash not deterministic (%d vs %d bytes)", seed, len(got), len(again))
		}
	}
	if !sawTorn {
		t.Fatal("no seed produced a partial torn tail")
	}
}

// TestCrashKeepAllProbability checks KeepAllProb=1 preserves unsynced tails
// (reordered completion) and KeepAllProb=0 with no torn tails drops them.
func TestCrashKeepAllProbability(t *testing.T) {
	mk := func(p float64) []byte {
		cfs := NewCrash(NewMem())
		f, _ := cfs.Create("db/x")
		cfs.SyncDir("db")
		f.Write([]byte("base"))
		f.Sync()
		f.Write([]byte("tail"))
		return crashRead(t, cfs.Crash(CrashOptions{Seed: 7, KeepAllProb: p}), "db/x")
	}
	if got := mk(1.0); string(got) != "basetail" {
		t.Fatalf("KeepAllProb=1: %q", got)
	}
	if got := mk(0.0); string(got) != "base" {
		t.Fatalf("KeepAllProb=0: %q", got)
	}
}

// TestCrashArmKillsDevice checks the armed crash point fails the (n+1)-th
// durable operation and every operation after it.
func TestCrashArmKillsDevice(t *testing.T) {
	cfs := NewCrash(NewMem())
	f, err := cfs.Create("db/a") // op 1
	if err != nil {
		t.Fatal(err)
	}
	if err := cfs.SyncDir("db"); err != nil { // op 2
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("x")); err != nil { // op 3
		t.Fatal(err)
	}

	cfs.ArmCrash(1)
	if err := f.Sync(); err != nil { // op 4: one more allowed
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("y")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write past crash point: err=%v, want ErrCrashed", err)
	}
	if !cfs.Crashed() {
		t.Fatal("Crashed() = false after trip")
	}
	// Everything is dead now.
	if _, err := cfs.Create("db/b"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Create after crash: %v", err)
	}
	if _, err := cfs.Open("db/a"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Open after crash: %v", err)
	}
	if err := cfs.Remove("db/a"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Remove after crash: %v", err)
	}
	if cfs.Exists("db/a") {
		t.Fatal("Exists reported true on dead device")
	}
	// The synced byte survives; the post-trip write does not.
	after := cfs.Crash(CrashOptions{})
	if got := crashRead(t, after, "db/a"); string(got) != "x" {
		t.Fatalf("post-crash contents %q, want %q", got, "x")
	}
}

// TestCrashOpCountSweepable checks OpCount counts exactly the gated ops so a
// sweep can arm at every point.
func TestCrashOpCountSweepable(t *testing.T) {
	cfs := NewCrash(NewMem())
	f, _ := cfs.Create("db/a") // 1
	f.Write([]byte("one"))     // 2
	f.Sync()                   // 3
	cfs.Rename("db/a", "db/b") // 4
	cfs.Remove("db/b")         // 5
	cfs.SyncDir("db")          // 6
	if n := cfs.OpCount(); n != 6 {
		t.Fatalf("OpCount = %d, want 6", n)
	}
}

// TestCrashRenameTracksDurable checks the durable snapshot follows a rename
// made durable by a directory sync (the manifest rollover pattern).
func TestCrashRenameTracksDurable(t *testing.T) {
	cfs := NewCrash(NewMem())
	f, _ := cfs.Create("db/MANIFEST.tmp")
	f.Write([]byte("state-v2"))
	f.Sync()
	f.Close()
	if err := cfs.Rename("db/MANIFEST.tmp", "db/MANIFEST"); err != nil {
		t.Fatal(err)
	}
	if err := cfs.SyncDir("db"); err != nil {
		t.Fatal(err)
	}
	after := cfs.Crash(CrashOptions{})
	if got := crashRead(t, after, "db/MANIFEST"); string(got) != "state-v2" {
		t.Fatalf("post-crash MANIFEST = %q", got)
	}
	if after.Exists("db/MANIFEST.tmp") {
		t.Fatal("tmp survived its rename")
	}
}

// TestCrashNamespaceDurableAtSyncDir pins the namespace model: creates,
// removes and renames survive a crash only once their directory is synced,
// whatever the state of the files' own data.
func TestCrashNamespaceDurableAtSyncDir(t *testing.T) {
	mk := func(cfs *CrashFS, name, content string) {
		f, _ := cfs.Create(name)
		f.Write([]byte(content))
		f.Sync()
		f.Close()
	}
	cfs := NewCrash(NewMem())
	mk(cfs, "db/kept", "kept")
	mk(cfs, "db/removed", "removed")
	mk(cfs, "db/old", "renamed")
	mk(cfs, "db/target", "target")
	if err := cfs.SyncDir("db"); err != nil {
		t.Fatal(err)
	}
	mk(cfs, "db/fresh", "synced data, unsynced entry")
	cfs.Remove("db/removed")
	cfs.Rename("db/old", "db/new")
	mk(cfs, "db/other/synced", "other dir")
	cfs.Rename("db/target.tmp", "db/target") // fails: no such file
	mk(cfs, "db/target.tmp", "replacement")
	cfs.Rename("db/target.tmp", "db/target")
	cfs.SyncDir("db/other") // covers nothing in db

	after := cfs.Crash(CrashOptions{})
	want := map[string]string{
		"db/kept":         "kept",
		"db/removed":      "removed",
		"db/old":          "renamed",
		"db/target":       "target",
		"db/other/synced": "other dir",
	}
	if got := after.AllFiles(); len(got) != len(want) {
		t.Fatalf("post-crash files %v, want %d files", got, len(want))
	}
	for name, content := range want {
		if got := crashRead(t, after, name); string(got) != content {
			t.Fatalf("post-crash %s = %q, want %q", name, got, content)
		}
	}
}
