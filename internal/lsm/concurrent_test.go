package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"adcache/internal/vfs"
)

// TestConcurrentWritersReadersBackground hammers the background write path:
// several writer goroutines (keeping the flush worker busy sealing,
// flushing and compacting) race several readers and a scanner. Afterwards
// every key must hold the value of some writer — torn or lost writes fail.
func TestConcurrentWritersReadersBackground(t *testing.T) {
	db := mustOpen(t, testOptions(vfs.NewMem()))
	defer db.Close()

	const (
		writers = 4
		readers = 3
		keys    = 500
		rounds  = 400
	)
	for i := 0; i < keys; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, writers+readers+1)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < rounds; i++ {
				k := rng.Intn(keys)
				if err := db.Put(key(k), val(k+1000*(w+1))); err != nil {
					errs <- fmt.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for i := 0; i < rounds; i++ {
				k := rng.Intn(keys)
				v, ok, err := db.Get(key(k))
				if err != nil {
					errs <- fmt.Errorf("reader %d: %v", r, err)
					return
				}
				if !ok {
					errs <- fmt.Errorf("reader %d: key %d missing", r, k)
					return
				}
				if !bytes.HasPrefix(v, []byte("value")) {
					errs <- fmt.Errorf("reader %d: torn value %q", r, v)
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			kvs, err := db.Scan(key(0), 64)
			if err != nil {
				errs <- fmt.Errorf("scanner: %v", err)
				return
			}
			for j := 1; j < len(kvs); j++ {
				if bytes.Compare(kvs[j-1].Key, kvs[j].Key) >= 0 {
					errs <- fmt.Errorf("scanner: unsorted result at %d", j)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Every key must resolve to one writer's (or the loader's) value.
	for i := 0; i < keys; i++ {
		v, ok, err := db.Get(key(i))
		if err != nil || !ok {
			t.Fatalf("post Get(%d): ok=%v err=%v", i, ok, err)
		}
		valid := bytes.Equal(v, val(i))
		for w := 0; w < writers && !valid; w++ {
			valid = bytes.Equal(v, val(i+1000*(w+1)))
		}
		if !valid {
			t.Fatalf("key %d holds foreign value %q", i, v)
		}
	}
	m := db.Metrics()
	if m.Flushes == 0 {
		t.Fatal("background worker never flushed")
	}
}

// TestGroupCommitBatchIsOneGroup pins the deterministic half of the group
// commit contract: one Apply is exactly one write group (one WAL append run,
// one memtable apply), regardless of batch size.
func TestGroupCommitBatchIsOneGroup(t *testing.T) {
	db := mustOpen(t, testOptions(vfs.NewMem()))
	defer db.Close()
	b := NewBatch()
	for i := 0; i < 100; i++ {
		b.Put(key(i), val(i))
	}
	if err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
	if got := db.Metrics().WriteGroups; got != 1 {
		t.Fatalf("WriteGroups = %d after one batch, want 1", got)
	}
	if err := db.Put(key(200), val(200)); err != nil {
		t.Fatal(err)
	}
	if got := db.Metrics().WriteGroups; got != 2 {
		t.Fatalf("WriteGroups = %d after batch+put, want 2", got)
	}
}

// TestGroupCommitCoalescesConcurrentWriters checks that contending writers
// share groups: with G goroutines issuing W sequential puts each, the group
// count can only stay at G*W if no two commits ever overlapped. Coalescing
// is scheduler-dependent, so the test only requires that the accounting
// stays within its hard bounds and reports the observed ratio.
func TestGroupCommitCoalescesConcurrentWriters(t *testing.T) {
	db := mustOpen(t, testOptions(vfs.NewMem()))
	defer db.Close()
	const goroutines, perG = 8, 300
	var wg sync.WaitGroup
	var failures atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if err := db.Put(key(g*perG+i), val(i)); err != nil {
					failures.Add(1)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatal("concurrent puts failed")
	}
	total := int64(goroutines * perG)
	groups := db.Metrics().WriteGroups
	if groups < 1 || groups > total {
		t.Fatalf("WriteGroups = %d, want within [1, %d]", groups, total)
	}
	t.Logf("group commit: %d ops in %d groups (%.2f ops/group)",
		total, groups, float64(total)/float64(groups))
	for g := 0; g < goroutines; g++ {
		for i := 0; i < perG; i += 37 {
			if _, ok, err := db.Get(key(g*perG + i)); err != nil || !ok {
				t.Fatalf("Get(%d,%d): ok=%v err=%v", g, i, ok, err)
			}
		}
	}
}

// TestCloseRacesInFlightWrites closes the DB while writers are mid-commit.
// Each write must either commit fully (nil error) or fail with ErrClosed —
// and every acknowledged write must survive reopening.
func TestCloseRacesInFlightWrites(t *testing.T) {
	fs := vfs.NewMem()
	db := mustOpen(t, testOptions(fs))

	const writers = 6
	acked := make([][]int, writers)
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; ; i++ {
				err := db.Put(key(w*100000+i), val(i))
				if err == nil {
					acked[w] = append(acked[w], i)
					continue
				}
				if errors.Is(err, ErrClosed) {
					return
				}
				errs <- fmt.Errorf("writer %d: %v", w, err)
				return
			}
		}(w)
	}
	close(start)
	// Let the writers get going, then yank the DB out from under them.
	for db.Metrics().LastSeq < 50 {
		runtime.Gosched()
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	db2 := mustOpen(t, testOptions(fs))
	defer db2.Close()
	for w := 0; w < writers; w++ {
		for _, i := range acked[w] {
			if _, ok, err := db2.Get(key(w*100000 + i)); err != nil || !ok {
				t.Fatalf("acknowledged write (%d,%d) lost: ok=%v err=%v", w, i, ok, err)
			}
		}
	}
}

// TestCloseRacesFlushAndCompact exercises Close against the foreground
// barriers and the background worker at once.
func TestCloseRacesFlushAndCompact(t *testing.T) {
	for round := 0; round < 5; round++ {
		db := mustOpen(t, testOptions(vfs.NewMem()))
		var wg sync.WaitGroup
		wg.Add(3)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				if err := db.Put(key(i), val(i)); errors.Is(err, ErrClosed) {
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for {
				if err := db.Flush(); errors.Is(err, ErrClosed) {
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for {
				if err := db.Compact(); errors.Is(err, ErrClosed) {
					return
				}
			}
		}()
		for db.Metrics().LastSeq < 100 {
			runtime.Gosched()
		}
		if err := db.Close(); err != nil {
			t.Fatalf("round %d Close: %v", round, err)
		}
		wg.Wait()
	}
}

// TestBackpressureBoundsState verifies the stall triggers really bound
// engine state under sustained write pressure: the immutable queue never
// exceeds its cap and L0 never exceeds the stop trigger, with writers far
// outpacing a deliberately loaded worker.
func TestBackpressureBoundsState(t *testing.T) {
	opts := testOptions(vfs.NewMem())
	opts.MemTableSize = 4 << 10 // seal constantly
	db := mustOpen(t, opts)
	defer db.Close()

	var wg, monWG sync.WaitGroup
	stop := make(chan struct{})
	var violated atomic.Int64
	monWG.Add(1)
	go func() {
		defer monWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			m := db.Metrics()
			if m.ImmMemTables > db.Options().MaxImmutableMemTables {
				violated.Add(1)
			}
			if m.L0Files > l0StopTrigger {
				violated.Add(1)
			}
			runtime.Gosched()
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 800; i++ {
				if err := db.Put(key(g*10000+i), bytes.Repeat([]byte{byte(g)}, 64)); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	monWG.Wait()
	if violated.Load() != 0 {
		t.Fatalf("backpressure bounds violated %d times", violated.Load())
	}
	m := db.Metrics()
	if m.Flushes == 0 {
		t.Fatal("no background flushes under write pressure")
	}
}

// TestIteratorSurvivesBackgroundChurn walks iterators while background
// flushes and compactions continuously rewrite the tree underneath them.
// Snapshot pinning must keep every walk sorted and error-free.
func TestIteratorSurvivesBackgroundChurn(t *testing.T) {
	db := mustOpen(t, testOptions(vfs.NewMem()))
	defer db.Close()
	for i := 0; i < 1000; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for {
			select {
			case <-stop:
				return
			default:
			}
			k := rng.Intn(1000)
			if err := db.Put(key(k), val(k+5000)); err != nil {
				return
			}
		}
	}()
	for round := 0; round < 10; round++ {
		it, err := db.NewIter()
		if err != nil {
			t.Fatal(err)
		}
		var prev []byte
		n := 0
		for ok := it.First(); ok; ok = it.Next() {
			if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
				t.Fatalf("round %d: unsorted iterator", round)
			}
			prev = append(prev[:0], it.Key()...)
			n++
		}
		if err := it.Err(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if n != 1000 {
			t.Fatalf("round %d: iterator saw %d keys, want 1000", round, n)
		}
		it.Close()
	}
	close(stop)
	wg.Wait()
}

// TestInlineCompactionMatchesSeedSemantics checks the deterministic mode:
// with InlineCompaction every flush and compaction happens synchronously on
// the writing goroutine, so the tree shape after a fixed op stream is a pure
// function of that stream (two identical runs agree exactly).
func TestInlineCompactionMatchesSeedSemantics(t *testing.T) {
	run := func() (Metrics, []KV) {
		opts := testOptions(vfs.NewMem())
		opts.InlineCompaction = true
		db := mustOpen(t, opts)
		defer db.Close()
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 5000; i++ {
			k := rng.Intn(1200)
			if err := db.Put(key(k), val(i)); err != nil {
				t.Fatal(err)
			}
		}
		kvs, err := db.Scan(key(0), 2000)
		if err != nil {
			t.Fatal(err)
		}
		return db.Metrics(), kvs
	}
	m1, kv1 := run()
	m2, kv2 := run()
	if m1.Flushes != m2.Flushes || m1.Compactions != m2.Compactions ||
		m1.WriteGroups != m2.WriteGroups || m1.TotalBytes != m2.TotalBytes {
		t.Fatalf("inline runs diverged: %+v vs %+v", m1, m2)
	}
	if m1.ImmMemTables != 0 {
		t.Fatalf("inline mode left %d immutable memtables queued", m1.ImmMemTables)
	}
	if len(kv1) != len(kv2) {
		t.Fatalf("scan lengths diverged: %d vs %d", len(kv1), len(kv2))
	}
	for i := range kv1 {
		if !bytes.Equal(kv1[i].Key, kv2[i].Key) || !bytes.Equal(kv1[i].Value, kv2[i].Value) {
			t.Fatalf("scan diverged at %d", i)
		}
	}
}

// TestRecoveryWithQueuedImmutables seals memtables without letting the
// worker flush them (white-box: seal directly, no worker notification),
// then closes and reopens: the manifest's WAL list must replay every sealed
// memtable plus the active log, in order.
func TestRecoveryWithQueuedImmutables(t *testing.T) {
	fs := vfs.NewMem()
	opts := testOptions(fs)
	opts.MemTableSize = 1 << 20    // never seals on its own
	opts.MaxImmutableMemTables = 4 // room for both hand-sealed memtables
	db := mustOpen(t, opts)
	// Keep the background worker from flushing the sealed memtables before
	// the queue is inspected: flushes run under compactMu.
	db.compactMu.Lock()
	seal := func() {
		db.commitMu.Lock()
		db.mu.Lock()
		if err := db.sealMemTableLocked(); err != nil {
			db.mu.Unlock()
			db.commitMu.Unlock()
			t.Fatal(err)
		}
		db.mu.Unlock()
		db.commitMu.Unlock()
	}
	for i := 0; i < 100; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	seal()
	for i := 100; i < 200; i++ {
		if err := db.Put(key(i), val(i+1000)); err != nil {
			t.Fatal(err)
		}
	}
	seal()
	for i := 0; i < 100; i += 2 { // overwrite half of the first batch
		if err := db.Put(key(i), val(i+2000)); err != nil {
			t.Fatal(err)
		}
	}
	got := db.Metrics().ImmMemTables
	db.compactMu.Unlock()
	if got != 2 {
		t.Fatalf("ImmMemTables = %d before close, want 2", got)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := mustOpen(t, opts)
	defer db2.Close()
	for i := 0; i < 200; i++ {
		want := val(i)
		switch {
		case i < 100 && i%2 == 0:
			want = val(i + 2000)
		case i >= 100:
			want = val(i + 1000)
		}
		v, ok, err := db2.Get(key(i))
		if err != nil || !ok {
			t.Fatalf("Get(%d) after reopen: ok=%v err=%v", i, ok, err)
		}
		if !bytes.Equal(v, want) {
			t.Fatalf("Get(%d) = %q, want %q", i, v, want)
		}
	}
}

// TestConcurrentBatchAppliesAtomic interleaves batches from multiple
// goroutines; every batch must be all-or-nothing even when the pipeline
// groups several batches into one commit.
func TestConcurrentBatchAppliesAtomic(t *testing.T) {
	db := mustOpen(t, testOptions(vfs.NewMem()))
	defer db.Close()
	const goroutines, batches = 4, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				b := NewBatch()
				base := (g*batches + i) * 10
				for j := 0; j < 10; j++ {
					b.Put(key(base+j), val(base))
				}
				if err := db.Apply(b); err != nil {
					t.Errorf("apply: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for gb := 0; gb < goroutines*batches; gb++ {
		base := gb * 10
		for j := 0; j < 10; j++ {
			v, ok, err := db.Get(key(base + j))
			if err != nil || !ok {
				t.Fatalf("Get(%d): ok=%v err=%v", base+j, ok, err)
			}
			if !bytes.Equal(v, val(base)) {
				t.Fatalf("batch %d torn: key %d = %q", gb, base+j, v)
			}
		}
	}
}
