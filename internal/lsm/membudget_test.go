package lsm

import (
	"fmt"
	"testing"

	"adcache/internal/vfs"
)

func budgetOpts() Options {
	opts := DefaultOptions("db")
	opts.FS = vfs.NewMem()
	opts.InlineCompaction = true
	opts.MemTableSize = 1 << 20
	opts.minMemTableSize = 8 << 10
	return opts
}

func bput(t *testing.T, db *DB, i int) {
	t.Helper()
	k := []byte(fmt.Sprintf("key%06d", i))
	v := make([]byte, 256)
	if err := db.Put(k, v); err != nil {
		t.Fatalf("Put(%d): %v", i, err)
	}
}

// TestMemTableBudgetShrinkAtRotation: shrinking the budget below the
// active memtable's current size never truncates it — the data stays
// readable, and the memtable seals (rotation) at the next write group,
// after which the active target tracks the smaller budget.
func TestMemTableBudgetShrinkAtRotation(t *testing.T) {
	db := mustOpen(t, budgetOpts())
	defer db.Close()

	db.SetMemTableBudget(1 << 20)
	for i := 0; i < 100; i++ {
		bput(t, db, i)
	}
	m := db.Metrics()
	if m.Flushes != 0 {
		t.Fatalf("flushed under a roomy budget: %d flushes", m.Flushes)
	}
	grown := m.MemTableBytes
	if grown == 0 {
		t.Fatal("memtable empty after 100 puts")
	}

	// Shrink far below the current fill. Nothing happens until the next
	// write group: the in-flight memtable must not be touched.
	db.SetMemTableBudget(16 << 10)
	if got := db.Metrics().MemTableBytes; got != grown {
		t.Fatalf("shrink truncated the in-flight memtable: %d -> %d bytes", grown, got)
	}

	// The next write observes size >= target and seals; inline compaction
	// flushes synchronously.
	bput(t, db, 100)
	m = db.Metrics()
	if m.Flushes == 0 {
		t.Fatal("no rotation after the post-shrink write group")
	}
	if m.MemTableBytes >= grown {
		t.Fatalf("active memtable did not rotate: %d bytes", m.MemTableBytes)
	}
	if m.MemTableTarget > 16<<10 {
		t.Fatalf("active target %d exceeds the shrunk budget", m.MemTableTarget)
	}

	// Every write — before and after the shrink — stays readable.
	for i := 0; i <= 100; i++ {
		k := []byte(fmt.Sprintf("key%06d", i))
		if _, ok, err := db.Get(k); err != nil || !ok {
			t.Fatalf("Get(%d) after shrink: ok=%v err=%v", i, ok, err)
		}
	}
}

// TestMemTableBudgetFloor: a budget below minMemTableSize degrades to
// frequent small flushes at the floor, never a zero-size livelock, and
// clearing the budget restores static sizing.
func TestMemTableBudgetFloor(t *testing.T) {
	opts := budgetOpts()
	db := mustOpen(t, opts)
	defer db.Close()

	db.SetMemTableBudget(1) // absurdly small
	for i := 0; i < 200; i++ {
		bput(t, db, i)
	}
	m := db.Metrics()
	if m.Flushes == 0 {
		t.Fatal("tiny budget never flushed")
	}
	if m.MemTableTarget != opts.minMemTableSize {
		t.Fatalf("target %d, want floor %d", m.MemTableTarget, opts.minMemTableSize)
	}
	for i := 0; i < 200; i++ {
		k := []byte(fmt.Sprintf("key%06d", i))
		if _, ok, err := db.Get(k); err != nil || !ok {
			t.Fatalf("Get(%d): ok=%v err=%v", i, ok, err)
		}
	}

	// Back to static sizing.
	db.SetMemTableBudget(0)
	if got := db.Metrics().MemTableTarget; got != opts.MemTableSize {
		t.Fatalf("static target %d, want %d", got, opts.MemTableSize)
	}
}

// TestWriteSideInfoSnapshot: the lock-free write-side snapshot tracks the
// commit path's counters and the imm queue without taking d.mu.
func TestWriteSideInfoSnapshot(t *testing.T) {
	db := mustOpen(t, budgetOpts())
	defer db.Close()

	if info := db.WriteSideInfo(); info.MemTarget == 0 {
		t.Fatal("initial snapshot missing (MemTarget == 0)")
	}
	db.SetMemTableBudget(32 << 10)
	for i := 0; i < 500; i++ {
		bput(t, db, i)
	}
	info := db.WriteSideInfo()
	if info.UserBytes == 0 {
		t.Fatal("UserBytes not tracked")
	}
	if info.Flushes == 0 || info.FlushedBytes == 0 {
		t.Fatalf("flush counters not tracked: %+v", info)
	}
	if info.MemTarget > 32<<10 {
		t.Fatalf("MemTarget %d exceeds budget", info.MemTarget)
	}
	if info.MaxImm != db.opts.maxImmutableMemTables {
		t.Fatalf("MaxImm = %d, want %d", info.MaxImm, db.opts.maxImmutableMemTables)
	}
	m := db.Metrics()
	if info.FlushedBytes != m.FlushedBytes || info.UserBytes != m.UserBytes {
		t.Fatalf("snapshot diverges from Metrics: %+v vs %+v", info, m)
	}
}
