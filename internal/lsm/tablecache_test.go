package lsm

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adcache/internal/keys"
	"adcache/internal/metrics"
	"adcache/internal/sstable"
	"adcache/internal/vfs"
)

// writeTestTable builds a minimal valid sstable for fileNum.
func writeTestTable(t *testing.T, fs vfs.FS, dir string, fileNum uint64) {
	t.Helper()
	f, err := fs.Create(sstPath(dir, fileNum))
	if err != nil {
		t.Fatal(err)
	}
	w := sstable.NewWriter(f, sstable.WriterOptions{})
	if err := w.Add(keys.Make([]byte("k"), 1, keys.KindSet), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// stallFS blocks Open of one path until released, counting those opens.
type stallFS struct {
	vfs.FS
	stall string
	gate  chan struct{}
	opens atomic.Int64
}

func (s *stallFS) Open(name string) (vfs.File, error) {
	if name == s.stall {
		s.opens.Add(1)
		<-s.gate
	}
	return s.FS.Open(name)
}

// TestTableCacheColdOpenDoesNotBlockWarmGets verifies that a cold table
// open stalled in the filesystem does not hold the cache lock: gets of
// already-open tables proceed while the open is in flight.
func TestTableCacheColdOpenDoesNotBlockWarmGets(t *testing.T) {
	mem := vfs.NewMem()
	const dir = "tctest"
	writeTestTable(t, mem, dir, 1)
	writeTestTable(t, mem, dir, 2)

	fs := &stallFS{FS: mem, stall: sstPath(dir, 2), gate: make(chan struct{})}
	tc := newTableCache(fs, dir, nil, new(metrics.Counter))

	if _, err := tc.get(1); err != nil {
		t.Fatal(err)
	}

	coldDone := make(chan error, 1)
	go func() {
		_, err := tc.get(2)
		coldDone <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for fs.opens.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("cold open never reached the filesystem")
		}
		time.Sleep(time.Millisecond)
	}

	warmDone := make(chan error, 1)
	go func() {
		_, err := tc.get(1)
		warmDone <- err
	}()
	select {
	case err := <-warmDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("get of an already-open table stalled behind a cold open")
	}

	close(fs.gate)
	if err := <-coldDone; err != nil {
		t.Fatal(err)
	}
}

// TestTableCacheSingleflight verifies that concurrent gets of the same
// cold file share one filesystem open and all receive the same reader.
func TestTableCacheSingleflight(t *testing.T) {
	mem := vfs.NewMem()
	const dir = "tctest"
	writeTestTable(t, mem, dir, 1)

	fs := &stallFS{FS: mem, stall: sstPath(dir, 1), gate: make(chan struct{})}
	tc := newTableCache(fs, dir, nil, new(metrics.Counter))

	const goroutines = 16
	readers := make([]*sstable.Reader, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			readers[i], errs[i] = tc.get(1)
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for fs.opens.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no open reached the filesystem")
		}
		time.Sleep(time.Millisecond)
	}
	// Give the remaining goroutines time to pile up on the entry, then
	// release the single in-flight open.
	time.Sleep(10 * time.Millisecond)
	close(fs.gate)
	wg.Wait()

	if n := fs.opens.Load(); n != 1 {
		t.Fatalf("%d filesystem opens for one file, want 1", n)
	}
	for i := 0; i < goroutines; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if readers[i] != readers[0] {
			t.Fatalf("goroutine %d got a different reader", i)
		}
	}
}

// TestTableCacheRetryAfterError verifies that a failed open is not cached:
// once the file exists, a later get succeeds.
func TestTableCacheRetryAfterError(t *testing.T) {
	mem := vfs.NewMem()
	const dir = "tctest"
	tc := newTableCache(mem, dir, nil, new(metrics.Counter))

	if _, err := tc.get(7); err == nil {
		t.Fatal("get of missing file succeeded")
	}
	writeTestTable(t, mem, dir, 7)
	r, err := tc.get(7)
	if err != nil {
		t.Fatal(err)
	}
	if r == nil {
		t.Fatal("nil reader after successful retry")
	}
}
