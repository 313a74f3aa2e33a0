package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"adcache/internal/cache/lru"
	"adcache/internal/sstable"
	"adcache/internal/vfs"
)

func testOptions(fs vfs.FS) Options {
	opts := DefaultOptions("testdb")
	opts.FS = fs
	opts.MemTableSize = 16 << 10 // small to force flushes
	opts.L1TargetSize = 64 << 10
	opts.TargetFileSize = 32 << 10
	return opts
}

func mustOpen(t *testing.T, opts Options) *DB {
	t.Helper()
	db, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return db
}

func key(i int) []byte { return []byte(fmt.Sprintf("key%08d", i)) }
func val(i int) []byte { return []byte(fmt.Sprintf("value%08d", i)) }

// TestDefaultOptionsAreTheDefaults pins one source of engine defaults: a
// caller passing a literal Options gets the engine DefaultOptions describes.
func TestDefaultOptionsAreTheDefaults(t *testing.T) {
	filled := Options{Dir: "d"}.withDefaults()
	filled.FS = nil
	if def := DefaultOptions("d"); !reflect.DeepEqual(def, filled) {
		t.Fatalf("DefaultOptions = %+v\nOptions{Dir}.withDefaults() = %+v", def, filled)
	}
}

func TestPutGet(t *testing.T) {
	db := mustOpen(t, testOptions(vfs.NewMem()))
	defer db.Close()
	for i := 0; i < 100; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	for i := 0; i < 100; i++ {
		v, ok, err := db.Get(key(i))
		if err != nil || !ok {
			t.Fatalf("Get(%s): ok=%v err=%v", key(i), ok, err)
		}
		if !bytes.Equal(v, val(i)) {
			t.Fatalf("Get(%s) = %q, want %q", key(i), v, val(i))
		}
	}
	if _, ok, _ := db.Get([]byte("missing")); ok {
		t.Fatal("Get(missing) reported found")
	}
}

func TestGetAfterFlush(t *testing.T) {
	db := mustOpen(t, testOptions(vfs.NewMem()))
	defer db.Close()
	const n = 2000
	for i := 0; i < n; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	m := db.Metrics()
	if m.Flushes == 0 {
		t.Fatal("expected at least one flush")
	}
	for i := 0; i < n; i += 17 {
		v, ok, err := db.Get(key(i))
		if err != nil || !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("Get(%s) after flush = %q ok=%v err=%v", key(i), v, ok, err)
		}
	}
}

func TestOverwriteAndDelete(t *testing.T) {
	db := mustOpen(t, testOptions(vfs.NewMem()))
	defer db.Close()
	k := []byte("k")
	if err := db.Put(k, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := db.Put(k, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := db.Get(k); !ok || string(v) != "v2" {
		t.Fatalf("Get after overwrite = %q ok=%v", v, ok)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := db.Get(k); !ok || string(v) != "v2" {
		t.Fatalf("Get after flush = %q ok=%v", v, ok)
	}
	if err := db.Delete(k); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := db.Get(k); ok {
		t.Fatal("Get after delete reported found")
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := db.Get(k); ok {
		t.Fatal("Get after delete+flush reported found")
	}
}

func TestScan(t *testing.T) {
	db := mustOpen(t, testOptions(vfs.NewMem()))
	defer db.Close()
	const n = 3000
	for i := 0; i < n; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Spot-check scans starting at several positions, spanning memtable and
	// multiple levels.
	for _, start := range []int{0, 1, 500, 1234, n - 10} {
		want := 16
		kvs, err := db.Scan(key(start), want)
		if err != nil {
			t.Fatalf("Scan: %v", err)
		}
		if len(kvs) != want && start+want <= n {
			t.Fatalf("Scan(%d) returned %d entries, want %d", start, len(kvs), want)
		}
		for j, kv := range kvs {
			if !bytes.Equal(kv.Key, key(start+j)) {
				t.Fatalf("Scan(%d)[%d].Key = %s, want %s", start, j, kv.Key, key(start+j))
			}
			if !bytes.Equal(kv.Value, val(start+j)) {
				t.Fatalf("Scan(%d)[%d].Value mismatch", start, j)
			}
		}
	}
}

func TestScanSkipsDeleted(t *testing.T) {
	db := mustOpen(t, testOptions(vfs.NewMem()))
	defer db.Close()
	for i := 0; i < 100; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i += 2 {
		if err := db.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	kvs, err := db.Scan(key(0), 10)
	if err != nil {
		t.Fatal(err)
	}
	for j, kv := range kvs {
		if !bytes.Equal(kv.Key, key(2*j+1)) {
			t.Fatalf("Scan[%d].Key = %s, want %s", j, kv.Key, key(2*j+1))
		}
	}
}

func TestCompactionShapesTree(t *testing.T) {
	db := mustOpen(t, testOptions(vfs.NewMem()))
	defer db.Close()
	rng := rand.New(rand.NewSource(42))
	const n = 20000
	for i := 0; i < n; i++ {
		k := rng.Intn(5000)
		if err := db.Put(key(k), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	m := db.Metrics()
	if m.Compactions == 0 {
		t.Fatal("expected compactions to run")
	}
	if m.L0Files >= l0StopTrigger {
		t.Fatalf("L0 has %d files, exceeding stop trigger", m.L0Files)
	}
	// Values must reflect the last write of each key.
	latest := map[int]int{}
	rng = rand.New(rand.NewSource(42))
	for i := 0; i < n; i++ {
		latest[rng.Intn(5000)] = i
	}
	for k, i := range latest {
		v, ok, err := db.Get(key(k))
		if err != nil || !ok {
			t.Fatalf("Get(%s): ok=%v err=%v", key(k), ok, err)
		}
		if !bytes.Equal(v, val(i)) {
			t.Fatalf("Get(%s) = %q, want %q", key(k), v, val(i))
		}
	}
}

func TestRecovery(t *testing.T) {
	fs := vfs.NewMem()
	opts := testOptions(fs)
	db := mustOpen(t, opts)
	const n = 5000
	for i := 0; i < n; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := mustOpen(t, opts)
	defer db2.Close()
	for i := 0; i < n; i += 31 {
		v, ok, err := db2.Get(key(i))
		if err != nil || !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("Get(%s) after reopen = %q ok=%v err=%v", key(i), v, ok, err)
		}
	}
}

func TestRecoveryWithoutClose(t *testing.T) {
	// Simulates a crash: the DB is abandoned without Close; the WAL must
	// restore the unflushed tail.
	fs := vfs.NewMem()
	opts := testOptions(fs)
	db := mustOpen(t, opts)
	for i := 0; i < 100; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	// No Close. Reopen from the same FS.
	db2 := mustOpen(t, opts)
	defer db2.Close()
	for i := 0; i < 100; i++ {
		v, ok, err := db2.Get(key(i))
		if err != nil || !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("Get(%s) after crash-reopen = %q ok=%v err=%v", key(i), v, ok, err)
		}
	}
}

func TestRecoverySurvivesSecondCrash(t *testing.T) {
	// A crash right after recovery must not lose the replayed writes:
	// Open retires the old logs, so it must first persist the recovered
	// memtable as an L0 table. Without that, abandoning the second
	// instance before any flush dropped every pre-crash write.
	fs := vfs.NewMem()
	opts := testOptions(fs)
	db := mustOpen(t, opts)
	for i := 0; i < 100; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Crash #1: abandon without Close, reopen, verify, then crash again
	// immediately — no writes, no Flush, no Close.
	db2 := mustOpen(t, opts)
	if _, ok, err := db2.Get(key(0)); err != nil || !ok {
		t.Fatalf("Get after first crash: ok=%v err=%v", ok, err)
	}
	if db2.Metrics().Flushes == 0 {
		t.Fatal("recovery did not flush the replayed memtable")
	}
	// Crash #2: reopen again from the same FS.
	db3 := mustOpen(t, opts)
	defer db3.Close()
	for i := 0; i < 100; i++ {
		v, ok, err := db3.Get(key(i))
		if err != nil || !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("Get(%s) after second crash = %q ok=%v err=%v", key(i), v, ok, err)
		}
	}
}

func TestSSTReadCallsCountBlockReads(t *testing.T) {
	db := mustOpen(t, testOptions(vfs.NewMem()))
	defer db.Close()
	for i := 0; i < 5000; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	before := db.Metrics().SSTReadCalls
	if _, ok, _ := db.Get(key(123)); !ok {
		t.Fatal("Get failed")
	}
	if db.Metrics().SSTReadCalls == before {
		t.Fatal("Get from disk did not register block reads")
	}
}

func TestConcurrentReadersAndWriter(t *testing.T) {
	db := mustOpen(t, testOptions(vfs.NewMem()))
	defer db.Close()
	for i := 0; i < 2000; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 4)
	for g := 0; g < 3; g++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				k := rng.Intn(2000)
				if _, ok, err := db.Get(key(k)); err != nil || !ok {
					done <- fmt.Errorf("Get(%d): ok=%v err=%v", k, ok, err)
					return
				}
				if rng.Intn(10) == 0 {
					if _, err := db.Scan(key(k), 8); err != nil {
						done <- fmt.Errorf("Scan: %v", err)
						return
					}
				}
			}
			done <- nil
		}(int64(g))
	}
	go func() {
		for i := 0; i < 2000; i++ {
			if err := db.Put(key(i%2000), val(i+10000)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestScanRange(t *testing.T) {
	db := mustOpen(t, testOptions(vfs.NewMem()))
	defer db.Close()
	for i := 0; i < 1000; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// Bounded range, unbounded count.
	kvs, err := db.ScanRange(key(10), key(20), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 10 {
		t.Fatalf("ScanRange returned %d entries, want 10", len(kvs))
	}
	for j, kv := range kvs {
		if !bytes.Equal(kv.Key, key(10+j)) {
			t.Fatalf("entry %d = %s", j, kv.Key)
		}
	}
	// Count bound tighter than the range.
	kvs, err = db.ScanRange(key(10), key(20), 3)
	if err != nil || len(kvs) != 3 {
		t.Fatalf("limited ScanRange = %d entries err=%v", len(kvs), err)
	}
	// nil end behaves like Scan.
	kvs, err = db.ScanRange(key(995), nil, 100)
	if err != nil || len(kvs) != 5 {
		t.Fatalf("unbounded-end ScanRange = %d entries err=%v", len(kvs), err)
	}
	// Empty range.
	kvs, err = db.ScanRange(key(20), key(20), 0)
	if err != nil || len(kvs) != 0 {
		t.Fatalf("empty range = %d entries err=%v", len(kvs), err)
	}
}

func TestIteratorFullTraversal(t *testing.T) {
	db := mustOpen(t, testOptions(vfs.NewMem()))
	defer db.Close()
	const n = 3000
	for i := 0; i < n; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 3 {
		if err := db.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	it, err := db.NewIter()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	count := 0
	prev := ""
	for ok := it.First(); ok; ok = it.Next() {
		k := string(it.Key())
		if k <= prev {
			t.Fatalf("keys out of order: %q after %q", k, prev)
		}
		prev = k
		count++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	want := n - (n+2)/3
	if count != want {
		t.Fatalf("iterated %d live keys, want %d", count, want)
	}
}

func TestIteratorSnapshotIsolation(t *testing.T) {
	db := mustOpen(t, testOptions(vfs.NewMem()))
	defer db.Close()
	for i := 0; i < 100; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	it, err := db.NewIter()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	// Writes after iterator creation are invisible to it.
	if err := db.Put(key(50), []byte("changed")); err != nil {
		t.Fatal(err)
	}
	if err := db.Put(key(200), val(200)); err != nil {
		t.Fatal(err)
	}
	if !it.SeekGE(key(50)) {
		t.Fatal("SeekGE failed")
	}
	if string(it.Value()) != string(val(50)) {
		t.Fatalf("snapshot saw new value %q", it.Value())
	}
	count := 0
	for ok := it.First(); ok; ok = it.Next() {
		count++
	}
	if count != 100 {
		t.Fatalf("snapshot sees %d keys, want 100", count)
	}
}

func TestIteratorSurvivesCompaction(t *testing.T) {
	db := mustOpen(t, testOptions(vfs.NewMem()))
	defer db.Close()
	for i := 0; i < 3000; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	it, err := db.NewIter()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if !it.First() {
		t.Fatal("First failed")
	}
	// Rewrite everything, forcing flushes and compactions that delete the
	// files the iterator is reading. The version pin must keep them alive.
	for i := 0; i < 3000; i++ {
		if err := db.Put(key(i), []byte("new")); err != nil {
			t.Fatal(err)
		}
	}
	count := 1
	for it.Next() {
		if string(it.Value()) == "new" {
			t.Fatal("snapshot saw post-iterator write")
		}
		count++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if count != 3000 {
		t.Fatalf("iterated %d keys, want 3000", count)
	}
}

func TestIteratorCloseReleasesFiles(t *testing.T) {
	fs := vfs.NewMem()
	db := mustOpen(t, testOptions(fs))
	defer db.Close()
	for i := 0; i < 3000; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	it, err := db.NewIter()
	if err != nil {
		t.Fatal(err)
	}
	it.First()
	// Rewriting triggers compactions; with the iterator open, obsolete
	// files must linger, and Close must let the GC reclaim them.
	for i := 0; i < 3000; i++ {
		if err := db.Put(key(i), []byte("new")); err != nil {
			t.Fatal(err)
		}
	}
	db.verMu.Lock()
	zombiesBefore := len(db.zombies)
	db.verMu.Unlock()
	if zombiesBefore == 0 {
		t.Skip("no zombies accumulated; compaction pattern changed")
	}
	it.Close()
	db.verMu.Lock()
	zombiesAfter := len(db.zombies)
	db.verMu.Unlock()
	if zombiesAfter >= zombiesBefore {
		t.Fatalf("Close did not release zombie files: %d -> %d", zombiesBefore, zombiesAfter)
	}
}

func TestBatchAtomicVisibility(t *testing.T) {
	db := mustOpen(t, testOptions(vfs.NewMem()))
	defer db.Close()
	b := NewBatch()
	for i := 0; i < 100; i++ {
		b.Put(key(i), val(i))
	}
	b.Delete(key(50))
	if b.Len() != 101 {
		t.Fatalf("Len = %d", b.Len())
	}
	if err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		v, ok, _ := db.Get(key(i))
		if i == 50 {
			if ok {
				t.Fatal("deleted-in-batch key visible")
			}
			continue
		}
		if !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("Get(%d) = %q ok=%v", i, v, ok)
		}
	}
	// Reuse after Reset.
	b.Reset()
	if b.Len() != 0 {
		t.Fatal("Reset did not clear")
	}
	b.Put(key(200), val(200))
	if err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := db.Get(key(200)); !ok {
		t.Fatal("write after reuse missing")
	}
}

func TestBatchSurvivesRecovery(t *testing.T) {
	fs := vfs.NewMem()
	opts := testOptions(fs)
	db := mustOpen(t, opts)
	// A crashed process flushes nothing more. The batch fills the memtable,
	// so freeze the worker (flushes run under compactMu, never released
	// here): left running it races the reopen below on the shared MemFS and
	// can retire the sealed memtable's WAL behind the manifest db2 loaded.
	db.compactMu.Lock()
	b := NewBatch()
	for i := 0; i < 500; i++ {
		b.Put(key(i), val(i))
	}
	if err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
	// Crash without Close; the batch must replay from the WAL.
	db2 := mustOpen(t, opts)
	defer db2.Close()
	for i := 0; i < 500; i += 37 {
		v, ok, _ := db2.Get(key(i))
		if !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("Get(%d) after crash = %q ok=%v", i, v, ok)
		}
	}
}

func TestEmptyBatchIsNoOp(t *testing.T) {
	db := mustOpen(t, testOptions(vfs.NewMem()))
	defer db.Close()
	if err := db.Apply(NewBatch()); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyIntegrityCleanTree(t *testing.T) {
	db := mustOpen(t, testOptions(vfs.NewMem()))
	defer db.Close()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 15000; i++ {
		if err := db.Put(key(rng.Intn(4000)), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	rep, err := db.VerifyIntegrity()
	if err != nil {
		t.Fatalf("VerifyIntegrity: %v", err)
	}
	if rep.Files == 0 || rep.Entries == 0 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestVerifyIntegrityDetectsCorruption(t *testing.T) {
	fs := vfs.NewMem()
	db := mustOpen(t, testOptions(fs))
	defer db.Close()
	for i := 0; i < 5000; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the first data block of some SST file.
	names, err := fs.List("testdb")
	if err != nil {
		t.Fatal(err)
	}
	corrupted := false
	for _, name := range names {
		if len(name) > 4 && name[len(name)-4:] == ".sst" {
			f, err := fs.Open("testdb/" + name)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt([]byte{0xAA, 0xBB, 0xCC}, 100); err != nil {
				t.Fatal(err)
			}
			corrupted = true
			break
		}
	}
	if !corrupted {
		t.Fatal("no sst file found to corrupt")
	}
	// The reader for the corrupted file may be cached with pinned index; a
	// data-block read must still fail its checksum.
	if _, err := db.VerifyIntegrity(); err == nil {
		t.Fatal("corruption not detected")
	}
}

// TestCompactionInvalidatesBlockCache pins the paper's core premise: after
// compactions rewrite files, previously cached blocks are dead weight (the
// hit rate collapses until re-warmed), while the range cache keeps serving.
func TestCompactionInvalidatesBlockCache(t *testing.T) {
	bc := lru.NewBlockCache(1 << 20)
	strategy := &blockOnlyStrategy{cache: bc}
	opts := testOptions(vfs.NewMem())
	opts.Strategy = strategy
	db := mustOpen(t, opts)
	defer db.Close()

	for i := 0; i < 3000; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// Warm the block cache.
	for i := 0; i < 3000; i++ {
		if _, ok, _ := db.Get(key(i)); !ok {
			t.Fatal("warm read failed")
		}
	}
	warmReads := db.QueryBlockReads()
	// Re-read: almost everything should be cached.
	for i := 0; i < 3000; i++ {
		db.Get(key(i))
	}
	cachedReads := db.QueryBlockReads() - warmReads
	if cachedReads > 200 {
		t.Fatalf("warm cache still missed %d reads", cachedReads)
	}
	// Rewrite enough data to force compactions that replace the files.
	before := db.Metrics().Compactions
	for i := 0; i < 3000; i++ {
		if err := db.Put(key(i), val(i+100000)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if db.Metrics().Compactions == before {
		t.Skip("no compaction triggered; premise untestable at this size")
	}
	// The same reads now miss once per block of the rewritten tree: cached
	// blocks are keyed by dead files.
	blocks := int64(db.Metrics().TotalBytes) / int64(db.opts.blockSize)
	mark := db.QueryBlockReads()
	for i := 0; i < 3000; i++ {
		db.Get(key(i))
	}
	invalidatedReads := db.QueryBlockReads() - mark
	if invalidatedReads < blocks/2 {
		t.Fatalf("compaction did not invalidate: %d misses for a %d-block tree", invalidatedReads, blocks)
	}
	if invalidatedReads < 5*(cachedReads+1) {
		t.Fatalf("post-compaction misses (%d) not clearly above warm-cache misses (%d)", invalidatedReads, cachedReads)
	}
}

// blockOnlyStrategy is a minimal block-cache-only strategy for engine tests
// (avoids importing internal/core, which would cycle).
type blockOnlyStrategy struct {
	NoCache
	cache *lru.BlockCache
}

func (s *blockOnlyStrategy) BlockCache() sstable.BlockCache { return s.cache }

func TestWriteAmplificationTracked(t *testing.T) {
	db := mustOpen(t, testOptions(vfs.NewMem()))
	defer db.Close()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		if err := db.Put(key(rng.Intn(4000)), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	m := db.Metrics()
	if m.UserBytes == 0 || m.FlushedBytes == 0 {
		t.Fatalf("byte accounting missing: %+v", m)
	}
	wa := m.WriteAmplification()
	// Flushing alone gives WA ≈ 1; leveled compaction multiplies it.
	if wa <= 1 {
		t.Fatalf("write amplification = %.2f, want > 1 with compactions (%d compactions)", wa, m.Compactions)
	}
	if wa > 50 {
		t.Fatalf("write amplification = %.2f, implausibly high", wa)
	}
}
