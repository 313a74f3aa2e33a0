package lsm

import (
	"testing"

	"adcache/internal/sstable"
	"adcache/internal/vfs"
)

// TestPrefetchClosesIterators is the regression test for the prefetch
// iterator leak: every iterator prefetchOutputs creates must be closed, on
// the success path and when the budget cuts iteration short. A leaked
// iterator pins the reader's pooled block state past the prefetch.
func TestPrefetchClosesIterators(t *testing.T) {
	var done []*sstable.Iter
	prefetchIterDone = func(it *sstable.Iter) { done = append(done, it) }
	defer func() { prefetchIterDone = nil }()

	opts := subcompactOptions(vfs.NewMem(), 1)
	opts.PrefetchOnCompaction = 4
	strategy := &countingStrategy{}
	opts.Strategy = strategy
	db := mustOpen(t, opts)
	defer db.Close()

	applySubcompactWorkload(t, db)
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if db.Metrics().Compactions == 0 {
		t.Fatal("workload did not trigger any compaction")
	}
	if len(done) == 0 {
		t.Fatal("prefetch ran no iterators despite PrefetchOnCompaction > 0")
	}
	for i, it := range done {
		if !it.Closed() {
			t.Fatalf("prefetch iterator %d of %d released without Close", i, len(done))
		}
	}
}

// TestPrefetchClosesIteratorOnError checks the close contract holds on the
// error path too: a read fault mid-prefetch surfaces the error AND releases
// the iterator.
func TestPrefetchClosesIteratorOnError(t *testing.T) {
	var done []*sstable.Iter
	prefetchIterDone = func(it *sstable.Iter) { done = append(done, it) }
	defer func() { prefetchIterDone = nil }()

	ffs := vfs.NewFault(vfs.NewMem())
	opts := subcompactOptions(ffs, 1)
	opts.PrefetchOnCompaction = 4
	opts.disableAutoCompaction = true
	strategy := &countingStrategy{}
	opts.Strategy = strategy
	db := mustOpen(t, opts)
	defer db.Close()

	for i := 0; i < 500; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.mu.RLock()
	outputs := append(db.version.Levels[0][:0:0], db.version.Levels[0]...)
	for _, level := range db.version.Levels[1:] {
		outputs = append(outputs, level...)
	}
	db.mu.RUnlock()
	if len(outputs) == 0 {
		t.Fatal("flush produced no tables")
	}
	// Open every table reader before arming the fault, so the failure lands
	// on the prefetch's block reads rather than on the table open.
	for _, f := range outputs {
		if _, err := db.tc.get(f.FileNum); err != nil {
			t.Fatalf("warm-up open of %06d: %v", f.FileNum, err)
		}
	}

	ffs.SetFailReads(true)
	err := db.prefetchOutputs(outputs)
	ffs.SetFailReads(false)
	if err == nil {
		t.Fatal("prefetch succeeded despite injected read failure")
	}
	if len(done) == 0 {
		t.Fatal("failing prefetch released no iterator")
	}
	for _, it := range done {
		if !it.Closed() {
			t.Fatal("prefetch iterator leaked on the error path")
		}
	}
}
