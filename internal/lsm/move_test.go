package lsm

import (
	"bytes"
	"testing"

	"adcache/internal/cache/lru"
	"adcache/internal/vfs"
)

// moveValue is the value every move test writes: 100 bytes, so one
// default-sized memtable flushes to a table far above the move size floor.
var moveValue = bytes.Repeat([]byte("m"), 100)

// levelOf returns the level holding file num in the current version, or -1.
func levelOf(db *DB, num uint64) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for level, files := range db.version.Levels {
		for _, f := range files {
			if f.FileNum == num {
				return level
			}
		}
	}
	return -1
}

// TestOrderedLoadRewritesNothing: keys loaded in order under DefaultOptions
// flush to tables that overlap nothing, so every compaction of the load is
// a move. No byte is rewritten, and every key reads back.
func TestOrderedLoadRewritesNothing(t *testing.T) {
	const n = 100_000
	db := mustOpen(t, DefaultOptions("movedb"))
	defer db.Close()
	for i := 0; i < n; i++ {
		if err := db.Put(key(i), moveValue); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	m := db.Metrics()
	t.Logf("files per level %v, %d moves of %d bytes, %d compactions", m.LevelFiles, m.Moves, m.MovedBytes, m.Compactions)
	if m.CompactedBytes != 0 || m.CompactionOutBytes != 0 || m.Compactions != 0 {
		t.Fatalf("ordered load rewrote %d bytes into %d in %d compactions", m.CompactedBytes, m.CompactionOutBytes, m.Compactions)
	}
	if m.Moves == 0 || m.MovedBytes == 0 {
		t.Fatalf("ordered load moved nothing: %d moves, %d bytes", m.Moves, m.MovedBytes)
	}
	if m.LevelFiles[0] >= l0CompactTrigger || m.NonEmptyLevels < 3 {
		t.Fatalf("files per level %v: the load did not go down the tree", m.LevelFiles)
	}
	for i := 0; i < n; i++ {
		v, ok, err := db.Get(key(i))
		if err != nil || !ok || !bytes.Equal(v, moveValue) {
			t.Fatalf("Get(%s) = %q, %v, %v", key(i), v, ok, err)
		}
	}
	if _, err := db.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// stageOrderedL0 writes files L0 tables of per keys each, in key order
// from first, one flush per table; auto-compaction is off so they stay in
// L0. It returns the tables' file numbers, oldest first.
func stageOrderedL0(t *testing.T, db *DB, first, files, per int) []uint64 {
	t.Helper()
	var nums []uint64
	for f := 0; f < files; f++ {
		for i := 0; i < per; i++ {
			if err := db.Put(key(first+f*per+i), moveValue); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		db.mu.RLock()
		nums = append(nums, db.version.Levels[0][0].FileNum)
		db.mu.RUnlock()
	}
	return nums
}

// moveOptions: default shapes, compaction only when the test asks for it.
func moveOptions(strategy CacheStrategy) Options {
	opts := DefaultOptions("movedb")
	opts.InlineCompaction = true
	opts.disableAutoCompaction = true
	opts.Strategy = strategy
	return opts
}

// TestMovedFileKeepsCachedBlocks: a move keeps the file's number, so a block
// cached from the file before the move is a cache hit after it. (A rewrite
// gives the data a new file number and every block misses again.)
func TestMovedFileKeepsCachedBlocks(t *testing.T) {
	strategy := &blockOnlyStrategy{cache: lru.NewBlockCache(8 << 20)}
	db := mustOpen(t, moveOptions(strategy))
	defer db.Close()
	nums := stageOrderedL0(t, db, 0, l0CompactTrigger, 2000)

	probe := key(10) // in the oldest table
	if _, ok, err := db.Get(probe); err != nil || !ok {
		t.Fatalf("Get before the move: %v %v", ok, err)
	}
	reads, hits := db.QueryBlockReads(), db.QueryBlockHits()
	if reads == 0 {
		t.Fatal("the first Get read no block")
	}

	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	m := db.Metrics()
	if m.Moves == 0 || m.Compactions != 0 {
		t.Fatalf("%d moves, %d compactions: want the L0 tables moved", m.Moves, m.Compactions)
	}
	if level := levelOf(db, nums[0]); level < 1 {
		t.Fatalf("table %06d is at level %d after the move", nums[0], level)
	}

	if _, ok, err := db.Get(probe); err != nil || !ok {
		t.Fatalf("Get after the move: %v %v", ok, err)
	}
	if got := db.QueryBlockReads() - reads; got != 0 {
		t.Fatalf("Get after the move read %d blocks from the device, want a cache hit", got)
	}
	if db.QueryBlockHits() == hits {
		t.Fatal("Get after the move hit no cached block")
	}
}

// TestMovedFileSurvivesVersionGC: a move never marks its file obsolete. An
// older version that pins the file at its old level is released, and the
// file stays on disk and readable at its new level.
func TestMovedFileSurvivesVersionGC(t *testing.T) {
	fs := vfs.NewMem()
	opts := moveOptions(nil)
	opts.FS = fs
	db := mustOpen(t, opts)
	defer db.Close()
	nums := stageOrderedL0(t, db, 0, l0CompactTrigger, 2000)

	db.mu.RLock()
	old := db.acquireVersion()
	db.mu.RUnlock()
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if m := db.Metrics(); m.Moves == 0 || m.Compactions != 0 {
		t.Fatalf("%d moves, %d compactions: want the L0 tables moved", m.Moves, m.Compactions)
	}
	check := func(when string) {
		t.Helper()
		for _, num := range nums {
			if !fs.Exists(sstPath(opts.Dir, num)) {
				t.Fatalf("%s: moved table %06d was deleted", when, num)
			}
			if level := levelOf(db, num); level != 1 {
				t.Fatalf("%s: table %06d at level %d, want 1", when, num, level)
			}
		}
	}
	check("old version pinned")
	db.releaseVersion(old)
	check("old version released")
	db.verMu.Lock()
	zombies := len(db.zombies)
	db.verMu.Unlock()
	if zombies != 0 {
		t.Fatalf("%d files await deletion after a move", zombies)
	}
	for i := 0; i < l0CompactTrigger*2000; i += 997 {
		if _, ok, err := db.Get(key(i)); err != nil || !ok {
			t.Fatalf("Get(%s) after the move: %v %v", key(i), ok, err)
		}
	}
	if _, err := db.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}
