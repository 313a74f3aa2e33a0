package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"adcache/internal/cache/lru"
	"adcache/internal/compaction"
	"adcache/internal/manifest"
	"adcache/internal/vfs"
)

// compactOptions is a configuration that forces deep, multi-file
// compactions: tiny memtables and output files, deterministic inline
// compaction triggers.
func compactOptions(fs vfs.FS) Options {
	opts := DefaultOptions("testdb")
	opts.FS = fs
	opts.InlineCompaction = true
	opts.MemTableSize = 8 << 10
	opts.TargetFileSize = 8 << 10
	opts.L1TargetSize = 16 << 10
	return opts
}

// applyCompactWorkload drives a seeded stream of overwrites and deletes
// wide enough that every run compacts several times, flushing after every
// flushEvery operations when it is positive, and returns the model of the
// live contents.
func applyCompactWorkload(t *testing.T, db *DB, flushEvery int) map[string]string {
	t.Helper()
	model := map[string]string{}
	rng := rand.New(rand.NewSource(42))
	for op := 0; op < 6000; op++ {
		k := fmt.Sprintf("key%05d", rng.Intn(2000))
		if rng.Intn(10) == 0 {
			if err := db.Delete([]byte(k)); err != nil {
				t.Fatal(err)
			}
			delete(model, k)
		} else {
			v := fmt.Sprintf("value%08d-%08d", op, rng.Intn(1<<30))
			if err := db.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
			model[k] = v
		}
		if flushEvery > 0 && (op+1)%flushEvery == 0 {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return model
}

func dumpAll(t *testing.T, db *DB) []KV {
	t.Helper()
	kvs, err := db.Scan(nil, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	return kvs
}

// checkModel fails unless db holds exactly model's contents.
func checkModel(t *testing.T, db *DB, model map[string]string) {
	t.Helper()
	kvs := dumpAll(t, db)
	if len(kvs) != len(model) {
		t.Fatalf("dump has %d keys, model %d", len(kvs), len(model))
	}
	for _, kv := range kvs {
		if model[string(kv.Key)] != string(kv.Value) {
			t.Fatalf("%s = %q, model %q", kv.Key, kv.Value, model[string(kv.Key)])
		}
	}
}

// TestSerialCompactionDeterministic checks that two runs of the same
// workload leave identical files on disk, with the contents the workload
// wrote and a tree that passes the integrity check. Every compaction is one
// merge, so the file layout does not depend on the core count: the inline
// engine and the background engine (auto-compaction off, one explicit
// Compact) are both checked. The background engine's memtable never fills
// here: explicit Flush calls stage its L0, because a seal racing the
// worker's flush would order their file numbers by scheduling.
func TestSerialCompactionDeterministic(t *testing.T) {
	for _, inline := range []bool{true, false} {
		t.Run(fmt.Sprintf("inline=%v", inline), func(t *testing.T) {
			snapshot := func() map[string][]byte {
				fs := vfs.NewMem()
				opts := compactOptions(fs)
				flushEvery := 0
				if !inline {
					opts.InlineCompaction = false
					opts.disableAutoCompaction = true
					opts.MemTableSize = 1 << 20
					flushEvery = 500
				}
				db := mustOpen(t, opts)
				model := applyCompactWorkload(t, db, flushEvery)
				if err := db.Compact(); err != nil {
					t.Fatal(err)
				}
				checkModel(t, db, model)
				if _, err := db.VerifyIntegrity(); err != nil {
					t.Fatalf("VerifyIntegrity: %v", err)
				}
				if m := db.Metrics(); m.Compactions == 0 || m.Subcompactions != m.Compactions {
					t.Fatalf("%d compactions, %d subcompactions: want equal and nonzero",
						m.Compactions, m.Subcompactions)
				}
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				names, err := fs.List("testdb")
				if err != nil {
					t.Fatal(err)
				}
				files := map[string][]byte{}
				for _, name := range names {
					f, err := fs.Open("testdb/" + name)
					if err != nil {
						t.Fatal(err)
					}
					size, _ := f.Size()
					buf := make([]byte, size)
					if _, err := f.ReadAt(buf, 0); err != nil && size > 0 {
						t.Fatal(err)
					}
					f.Close()
					files[name] = buf
				}
				return files
			}
			a, b := snapshot(), snapshot()
			if len(a) != len(b) {
				t.Fatalf("runs left different file sets: %d vs %d files", len(a), len(b))
			}
			for name, data := range a {
				other, ok := b[name]
				if !ok {
					t.Fatalf("file %s missing from second run", name)
				}
				if !bytes.Equal(data, other) {
					t.Fatalf("file %s differs between runs (%d vs %d bytes)", name, len(data), len(other))
				}
			}
		})
	}
}

// TestCompactionFaultLeavesNoOrphans injects a write failure after the
// merge has finished some output tables and checks that (a) the root error
// surfaces, (b) every output the merge wrote, finished or partial, is
// deleted — the disk holds only files referenced by the installed version —
// and (c) after the fault clears the same compaction succeeds and loses
// nothing.
func TestCompactionFaultLeavesNoOrphans(t *testing.T) {
	ffs := vfs.NewFault(vfs.NewMem())
	opts := compactOptions(ffs)
	opts.disableAutoCompaction = true
	db := mustOpen(t, opts)
	defer db.Close()

	model := map[string]string{}
	rng := rand.New(rand.NewSource(7))
	for op := 0; op < 4000; op++ {
		k := fmt.Sprintf("key%05d", rng.Intn(1500))
		v := fmt.Sprintf("value%08d", op)
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		model[k] = v
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	opened := db.Metrics().TableOpens
	ffs.FailAfterWrites(2)
	err := db.Compact()
	ffs.Reset()
	if !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("Compact = %v, want the injected write failure", err)
	}
	if db.Metrics().TableOpens == opened {
		t.Fatal("the fault struck before the merge finished an output table")
	}

	// The failed compaction installed nothing and deleted all partial
	// outputs.
	checkNoOrphanTables(t, db)

	// The fault cleared: the retried compaction succeeds and loses nothing.
	if err := db.Compact(); err != nil {
		t.Fatalf("Compact after fault cleared: %v", err)
	}
	checkModel(t, db, model)
	if _, err := db.VerifyIntegrity(); err != nil {
		t.Fatalf("VerifyIntegrity after retry: %v", err)
	}
}

// checkNoOrphanTables fails unless every .sst on disk is referenced by the
// current version.
func checkNoOrphanTables(t *testing.T, db *DB) {
	t.Helper()
	referenced := map[uint64]bool{}
	db.mu.RLock()
	for _, level := range db.version.Levels {
		for _, f := range level {
			referenced[f.FileNum] = true
		}
	}
	db.mu.RUnlock()
	names, err := db.fs.List(db.opts.Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		typ, num := parseFileName(name)
		if typ == "sst" && !referenced[num] {
			t.Fatalf("orphan SST %s left behind by a compaction", name)
		}
	}
}

// stagedOptions is the inline engine with flush-triggered compaction off
// and a memtable that never fills, so a test stages each level by hand with
// Put and Flush and runs exactly the merges it names.
func stagedOptions(fs vfs.FS) Options {
	opts := compactOptions(fs)
	opts.disableAutoCompaction = true
	opts.MemTableSize = 1 << 20
	return opts
}

// levelFiles returns the current version's files at level.
func levelFiles(db *DB, level int) []*manifest.FileMeta {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return slices.Clone(db.version.Levels[level])
}

// entriesAt sums the entries, live and tombstone, of the files at level.
func entriesAt(db *DB, level int) uint64 {
	var n uint64
	for _, f := range levelFiles(db, level) {
		n += f.NumEntries
	}
	return n
}

// mergeLevel merges every file at level with every file at level+1 as one
// compaction, never a move. Tombstones may drop only when no level below
// level+1 holds data, as the picker decides.
func mergeLevel(db *DB, level int) error {
	db.compactMu.Lock()
	defer db.compactMu.Unlock()
	db.mu.RLock()
	v := db.version
	db.mu.RUnlock()
	deepest := 0
	for l, files := range v.Levels {
		if len(files) > 0 {
			deepest = l
		}
	}
	return db.runCompaction(&compaction.Plan{
		InputLevel:  level,
		OutputLevel: level + 1,
		Inputs:      slices.Clone(v.Levels[level]),
		Overlaps:    slices.Clone(v.Levels[level+1]),
		LastLevel:   deepest <= level+1,
	})
}

func mustMergeLevel(t *testing.T, db *DB, level int) {
	t.Helper()
	if err := mergeLevel(db, level); err != nil {
		t.Fatalf("merge L%d into L%d: %v", level, level+1, err)
	}
}

// putRange writes keys [lo, hi) with values tagged by round and flushes
// them to one L0 table.
func putRange(t *testing.T, db *DB, model map[string]string, lo, hi, round int) {
	t.Helper()
	for i := lo; i < hi; i++ {
		v := fmt.Sprintf("round%d-%s", round, val(i))
		if err := db.Put(key(i), []byte(v)); err != nil {
			t.Fatal(err)
		}
		model[string(key(i))] = v
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
}

// deleteEvery deletes every step-th key in [0, n) and flushes the
// tombstones to one L0 table.
func deleteEvery(t *testing.T, db *DB, model map[string]string, n, step int) {
	t.Helper()
	for i := 0; i < n; i += step {
		if err := db.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
		delete(model, string(key(i)))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactionKeepsNewestVersion merges two overlapping L0 tables with an
// older L1 run and checks that the output holds exactly one entry per user
// key, the newest: L0 tables are merged one by one, and a newer L0 table
// shadows both an older one and the output level.
func TestCompactionKeepsNewestVersion(t *testing.T) {
	db := mustOpen(t, stagedOptions(vfs.NewMem()))
	defer db.Close()
	const n = 1200
	model := map[string]string{}
	putRange(t, db, model, 0, n, 0)
	mustMergeLevel(t, db, 0)
	putRange(t, db, model, 0, n/2, 1)
	putRange(t, db, model, n/4, 3*n/4, 2)
	if got := len(levelFiles(db, 0)); got != 2 {
		t.Fatalf("staged %d L0 tables, want 2", got)
	}

	mustMergeLevel(t, db, 0)
	if got := len(levelFiles(db, 0)); got != 0 {
		t.Fatalf("%d L0 tables left after the merge", got)
	}
	if got := entriesAt(db, 1); got != n {
		t.Fatalf("L1 holds %d entries for %d keys: shadowed versions survived the merge", got, n)
	}
	checkModel(t, db, model)
	if _, err := db.VerifyIntegrity(); err != nil {
		t.Fatalf("VerifyIntegrity: %v", err)
	}
}

// TestCompactionDropsTombstonesAtLastLevel merges tombstones into the
// deepest level that holds data: they and the versions they delete are
// gone from the output.
func TestCompactionDropsTombstonesAtLastLevel(t *testing.T) {
	db := mustOpen(t, stagedOptions(vfs.NewMem()))
	defer db.Close()
	const n = 1200
	model := map[string]string{}
	putRange(t, db, model, 0, n, 0)
	deleteEvery(t, db, model, n, 2)

	mustMergeLevel(t, db, 0)
	if got := entriesAt(db, 1); got != uint64(len(model)) {
		t.Fatalf("L1 holds %d entries for %d live keys: tombstones reached the last level",
			got, len(model))
	}
	for i := 0; i < n; i += 2 {
		if _, ok, err := db.Get(key(i)); err != nil || ok {
			t.Fatalf("deleted %s: found=%v err=%v", key(i), ok, err)
		}
	}
	checkModel(t, db, model)
}

// TestCompactionKeepsTombstonesAboveData merges tombstones into a level
// with data below it: they must survive the merge, or the deleted keys
// would come back from the deeper level. The next merge, into the deepest
// level, drops them with the data they delete.
func TestCompactionKeepsTombstonesAboveData(t *testing.T) {
	db := mustOpen(t, stagedOptions(vfs.NewMem()))
	defer db.Close()
	const n = 1200
	model := map[string]string{}
	putRange(t, db, model, 0, n, 0)
	mustMergeLevel(t, db, 0)
	mustMergeLevel(t, db, 1)
	deleteEvery(t, db, model, n, 3)

	mustMergeLevel(t, db, 0)
	if got, want := entriesAt(db, 1), uint64(n-len(model)); got != want {
		t.Fatalf("L1 holds %d entries, want the %d tombstones", got, want)
	}
	checkModel(t, db, model)

	mustMergeLevel(t, db, 1)
	if got := len(levelFiles(db, 1)); got != 0 {
		t.Fatalf("%d L1 tables left after the merge", got)
	}
	if got := entriesAt(db, 2); got != uint64(len(model)) {
		t.Fatalf("L2 holds %d entries for %d live keys", got, len(model))
	}
	checkModel(t, db, model)
	if _, err := db.VerifyIntegrity(); err != nil {
		t.Fatalf("VerifyIntegrity: %v", err)
	}
}

// TestCompactionOfOnlyTombstonesWritesNothing merges tombstones that
// delete every key into the last level: the merge writes no table, the
// level empties, and the input tables leave the disk.
func TestCompactionOfOnlyTombstonesWritesNothing(t *testing.T) {
	db := mustOpen(t, stagedOptions(vfs.NewMem()))
	defer db.Close()
	const n = 600
	model := map[string]string{}
	putRange(t, db, model, 0, n, 0)
	mustMergeLevel(t, db, 0)
	deleteEvery(t, db, model, n, 1)

	before := db.Metrics()
	mustMergeLevel(t, db, 0)
	after := db.Metrics()
	if after.Compactions != before.Compactions+1 {
		t.Fatalf("ran %d compactions, want 1", after.Compactions-before.Compactions)
	}
	if out := after.CompactionOutBytes - before.CompactionOutBytes; out != 0 {
		t.Fatalf("merge wrote %d bytes, want none", out)
	}
	for level := 0; level < 2; level++ {
		if got := len(levelFiles(db, level)); got != 0 {
			t.Fatalf("L%d holds %d tables after every key was deleted", level, got)
		}
	}
	checkNoOrphanTables(t, db)
	checkModel(t, db, model)
}

// TestCompactionSplitsOutputsAtTargetFileSize checks the output run of a
// large merge: a new table starts once one reaches TargetFileSize, so every
// table but the last holds at least that much, and the tables are sorted
// and key-disjoint, numbered in key order.
func TestCompactionSplitsOutputsAtTargetFileSize(t *testing.T) {
	opts := stagedOptions(vfs.NewMem())
	db := mustOpen(t, opts)
	defer db.Close()
	const n = 2000
	model := map[string]string{}
	putRange(t, db, model, 0, n, 0)
	putRange(t, db, model, n/2, n, 1)

	mustMergeLevel(t, db, 0)
	outs := levelFiles(db, 1)
	if len(outs) < 4 {
		t.Fatalf("merge wrote %d tables of target %d bytes, want several",
			len(outs), opts.TargetFileSize)
	}
	var entries uint64
	for i, f := range outs {
		entries += f.NumEntries
		if i < len(outs)-1 && int64(f.Size) < opts.TargetFileSize {
			t.Errorf("table %d of %d is %d bytes, under the %d-byte target",
				i, len(outs), f.Size, opts.TargetFileSize)
		}
		if i == 0 {
			continue
		}
		prev := outs[i-1]
		if bytes.Compare(prev.Largest.UserKey(), f.Smallest.UserKey()) >= 0 {
			t.Fatalf("tables %d and %d overlap: %s >= %s",
				i-1, i, prev.Largest.UserKey(), f.Smallest.UserKey())
		}
		if prev.FileNum >= f.FileNum {
			t.Fatalf("table %d is file %d, after file %d in key order", i, f.FileNum, prev.FileNum)
		}
	}
	if entries != n {
		t.Fatalf("outputs hold %d entries for %d keys", entries, n)
	}
	checkModel(t, db, model)
}

// TestCompactionBypassesBlockCache checks that a merge reads its inputs
// around the block cache: it inserts no block, so compaction I/O cannot
// evict the blocks foreground reads cached.
func TestCompactionBypassesBlockCache(t *testing.T) {
	bc := lru.NewBlockCache(4 << 20)
	opts := stagedOptions(vfs.NewMem())
	opts.Strategy = &blockOnlyStrategy{cache: bc}
	db := mustOpen(t, opts)
	defer db.Close()
	const n = 1200
	model := map[string]string{}
	putRange(t, db, model, 0, n, 0)
	putRange(t, db, model, 0, n, 1)
	for i := 0; i < n; i += 10 {
		if _, ok, err := db.Get(key(i)); err != nil || !ok {
			t.Fatalf("Get %s: found=%v err=%v", key(i), ok, err)
		}
	}
	warm := bc.Stats()
	if warm.Inserts == 0 {
		t.Fatal("foreground reads cached no block")
	}

	mustMergeLevel(t, db, 0)
	if got := bc.Stats(); got.Inserts != warm.Inserts || got.Hits != warm.Hits || got.Misses != warm.Misses {
		t.Fatalf("merge touched the block cache: %d inserts, %d hits, %d misses (before %d, %d, %d)",
			got.Inserts, got.Hits, got.Misses, warm.Inserts, warm.Hits, warm.Misses)
	}
	checkModel(t, db, model)
}

// TestCompactionCreateFailureKeepsInputs fails the creation of the first
// output table: the error surfaces, the version still holds the inputs,
// no table is left behind, and the merge succeeds once the fault clears.
func TestCompactionCreateFailureKeepsInputs(t *testing.T) {
	ffs := vfs.NewFault(vfs.NewMem())
	db := mustOpen(t, stagedOptions(ffs))
	defer db.Close()
	const n = 1200
	model := map[string]string{}
	putRange(t, db, model, 0, n, 0)
	putRange(t, db, model, n/2, n, 1)
	inputs := levelFiles(db, 0)

	ffs.Target(".sst")
	ffs.FailCreates(1)
	err := mergeLevel(db, 0)
	ffs.Reset()
	if !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("merge = %v, want the injected create failure", err)
	}
	if got := levelFiles(db, 0); !slices.Equal(got, inputs) {
		t.Fatalf("failed merge changed L0: %d tables, had %d", len(got), len(inputs))
	}
	if got := len(levelFiles(db, 1)); got != 0 {
		t.Fatalf("failed merge installed %d L1 tables", got)
	}
	checkNoOrphanTables(t, db)
	checkModel(t, db, model)

	mustMergeLevel(t, db, 0)
	if got := entriesAt(db, 1); got != n {
		t.Fatalf("retried merge: L1 holds %d entries for %d keys", got, n)
	}
	checkModel(t, db, model)
}
