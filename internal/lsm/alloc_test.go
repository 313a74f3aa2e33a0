package lsm

import (
	"testing"

	"adcache/internal/cache/blockcache"
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
	db := allocDB(t, &blockOnlyStrategy{cache: blockcache.New(32 << 20)}, 20_000)
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
	db := allocDB(t, &blockOnlyStrategy{cache: blockcache.New(32 << 20)}, 20_000)
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

// TestAllocsCommit bounds what a write group of one Put allocates: ten
// objects — the caller's key and value copies, the group's bookkeeping, the
// WAL record and the memtable entry. Publishing the write-side counters
// allocates nothing: they are registry cells, where a WriteSideInfo copy
// boxed into an atomic.Value per group used to be the eleventh.
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
