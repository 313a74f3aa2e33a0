package lsm

import (
	"runtime"
	"testing"

	"adcache/internal/cache/lru"
	"adcache/internal/vfs"
)

// allocDB builds a flushed, compacted store with n keys so allocation
// measurements exercise the SSTable read path rather than the memtable.
func allocDB(t *testing.T, strategy CacheStrategy, n int) *DB {
	t.Helper()
	opts := DefaultOptions("allocdb")
	opts.FS = vfs.NewMem()
	opts.Strategy = strategy
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	for i := 0; i < n; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestAllocsCachedGet locks in the zero-allocation read path: once the
// target block is in the block cache, a point lookup's only allocation is
// the value copy returned to the caller.
func TestAllocsCachedGet(t *testing.T) {
	db := allocDB(t, &blockOnlyStrategy{cache: lru.NewBlockCache(32 << 20)}, 20_000)
	k := key(12345)
	if _, ok, err := db.Get(k); err != nil || !ok {
		t.Fatalf("warm-up Get: ok=%v err=%v", ok, err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok, _ := db.Get(k); !ok {
			t.Fatal("key vanished")
		}
	})
	// Under -race sync.Pool drops puts at random, so the pooled readState is
	// reallocated on some iterations; only the race-free bound is strict.
	if !raceEnabled && allocs > 1 {
		t.Fatalf("cached Get allocates %.1f objects/op, want <= 1 (the value copy)", allocs)
	}
}

// TestAllocsBloomNegativeGet asserts that a lookup rejected by every
// table's Bloom filter completes without allocating at all.
func TestAllocsBloomNegativeGet(t *testing.T) {
	db := allocDB(t, NoCache{}, 20_000)
	// In range (so files are probed) but absent (so every filter rejects).
	absent := append(key(12345), 'x')
	if _, ok, err := db.Get(absent); err != nil || ok {
		t.Fatalf("warm-up Get: ok=%v err=%v", ok, err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok, _ := db.Get(absent); ok {
			t.Fatal("phantom key")
		}
	})
	if !raceEnabled && allocs > 0 {
		t.Fatalf("bloom-negative Get allocates %.1f objects/op, want 0", allocs)
	}
}

// TestAllocsWarmScan16 bounds the steady-state cost of a short scan with
// all blocks cached: one presized result arena plus the result slices,
// independent of entry count (3/op; a second copy of the result for the
// strategy made it 4, regrowing the arena and the per-level file lists 13,
// the per-entry copies before that ~69).
func TestAllocsWarmScan16(t *testing.T) {
	db := allocDB(t, &blockOnlyStrategy{cache: lru.NewBlockCache(32 << 20)}, 20_000)
	start := key(5000)
	if kvs, err := db.Scan(start, 16); err != nil || len(kvs) != 16 {
		t.Fatalf("warm-up Scan: len=%d err=%v", len(kvs), err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		kvs, err := db.Scan(start, 16)
		if err != nil || len(kvs) != 16 {
			t.Fatal("scan failed")
		}
	})
	if !raceEnabled && allocs > 7 {
		t.Fatalf("warm Scan(16) allocates %.1f objects/op, want <= 7", allocs)
	}
}

// TestAllocsZeroBudgetBlockMiss pins what a block cache with no budget
// costs a read that misses it: nothing block-sized. AdCache's controller
// can move the whole budget to the range cache; a missed Get then reads its
// block into the operation's scratch and a missed Scan(16) offers nothing to
// copy, where each used to allocate a buffer per block for an insert the
// cache refused.
func TestAllocsZeroBudgetBlockMiss(t *testing.T) {
	db := allocDB(t, &blockOnlyStrategy{cache: lru.NewBlockCache(0)}, 20_000)
	blockSize := db.opts.blockSize
	perOp := func(ops int, op func(i int)) float64 {
		op(0) // warm the pools
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 1; i <= ops; i++ {
			op(i)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(ops)
	}
	get := perOp(500, func(i int) {
		if _, ok, err := db.Get(key(i * 37 % 20_000)); err != nil || !ok {
			t.Fatalf("Get: ok=%v err=%v", ok, err)
		}
	})
	scan := perOp(500, func(i int) {
		if kvs, err := db.Scan(key(i*37%19_000), 16); err != nil || len(kvs) != 16 {
			t.Fatalf("Scan: len=%d err=%v", len(kvs), err)
		}
	})
	t.Logf("missed Get allocates %.0f B/op, missed Scan(16) %.0f B/op (blocks are %d B)", get, scan, blockSize)
	if raceEnabled {
		return
	}
	if get >= float64(blockSize)/2 {
		t.Errorf("missed Get allocates %.0f B/op at a zero block budget, want < %d (no block buffer)", get, blockSize/2)
	}
	if scan >= float64(blockSize)/2 {
		t.Errorf("missed Scan(16) allocates %.0f B/op at a zero block budget, want < %d (no block copy)", scan, blockSize/2)
	}
}

// TestAllocsCommit bounds what a write group of one Put allocates: ten
// objects — the caller's key and value copies, the group's bookkeeping, the
// WAL record and the memtable entry. Publishing the write-side counters
// allocates nothing: they are registry cells.
func TestAllocsCommit(t *testing.T) {
	opts := DefaultOptions("allocdb")
	opts.FS = vfs.NewMem()
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	k, v := key(1), val(1)
	if err := db.Put(k, v); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := db.Put(k, v); err != nil {
			t.Fatal(err)
		}
	})
	if !raceEnabled && allocs > 10 {
		t.Fatalf("Put allocates %.1f objects/op, want <= 10", allocs)
	}
}

// TestAllocsBatchApply pins the write path's allocations: a batch copies
// its operations into one growing buffer, and the memtable copies them
// into its arena, so a 512-op Put + Apply costs the group commit's few
// objects, not several per operation. Run on a batch reused with Reset
// (the server's pool) and on a fresh one per Apply (the bench's load).
func TestAllocsBatchApply(t *testing.T) {
	const ops, runs = 512, 50
	opts := DefaultOptions("allocbatch")
	opts.FS = vfs.NewMem()
	// Every write stays in the active memtable: a seal and its flush
	// would count the table writer's allocations here too.
	opts.MemTableSize = 64 << 20
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	userKeys := make([][]byte, 2*(runs+1)*ops)
	for i := range userKeys {
		userKeys[i] = key(i)
	}
	value := make([]byte, 256)
	next := 0
	fill := func(b *Batch) {
		for i := 0; i < ops; i++ {
			b.Put(userKeys[next], value)
			next++
		}
	}
	reused := NewBatch()
	for _, tc := range []struct {
		name  string
		batch func() *Batch
		max   float64
	}{
		{"reused", func() *Batch { reused.Reset(); return reused }, 8},
		{"fresh", NewBatch, 32},
	} {
		allocs := testing.AllocsPerRun(runs, func() {
			b := tc.batch()
			fill(b)
			if err := db.Apply(b); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s batch: %.0f allocations per %d-op Put + Apply", tc.name, allocs, ops)
		if !raceEnabled && allocs > tc.max {
			t.Fatalf("%s batch: %.0f allocations per %d-op Put + Apply, want <= %.0f", tc.name, allocs, ops, tc.max)
		}
	}
}
