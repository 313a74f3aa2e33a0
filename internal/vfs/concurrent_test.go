package vfs

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The engine's commit pipeline syncs the WAL from one group while the next
// group's leader appends to it, and several groups can be syncing at once.
// These tests hold every FS implementation the engine runs on to that
// pattern, under -race.

const (
	cwWriters = 4
	cwRecords = 200
	cwRecLen  = 16
)

// cwRecord is writer w's i-th fixed-size record.
func cwRecord(w, i int) []byte {
	return []byte(fmt.Sprintf("w%01d-%012d\n", w, i))
}

// hammer appends every writer's records to f while two goroutines sync it
// in a loop, then checks every record arrived whole.
func hammer(t *testing.T, f File) []byte {
	t.Helper()
	var writers, syncers sync.WaitGroup
	stop := make(chan struct{})
	for s := 0; s < 2; s++ {
		syncers.Add(1)
		go func() {
			defer syncers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := f.Sync(); err != nil {
					t.Errorf("Sync: %v", err)
					return
				}
			}
		}()
	}
	for w := 0; w < cwWriters; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < cwRecords; i++ {
				if _, err := f.Write(cwRecord(w, i)); err != nil {
					t.Errorf("Write: %v", err)
					return
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	syncers.Wait()
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(cwWriters * cwRecords * cwRecLen); size != want {
		t.Fatalf("size %d, want %d", size, want)
	}
	data := make([]byte, size)
	if _, err := f.ReadAt(data, 0); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < cwWriters; w++ {
		for i := 0; i < cwRecords; i++ {
			if !bytes.Contains(data, cwRecord(w, i)) {
				t.Fatalf("record %d of writer %d missing or torn", i, w)
			}
		}
	}
	return data
}

// TestConcurrentWriteSync runs concurrent Write + Sync on one file through
// every FS the engine's tests and benchmarks use.
func TestConcurrentWriteSync(t *testing.T) {
	for _, tc := range []struct {
		name string
		fs   func() FS
	}{
		{"MemFS", func() FS { return NewMem() }},
		{"CrashFS", func() FS { return NewCrash(NewMem()) }},
		{"FaultFS", func() FS { return NewFault(NewMem()) }},
		{"CountingFS", func() FS { return NewCounting(NewMem()) }},
		{"LatencyFS", func() FS { return NewLatency(NewMem(), time.Microsecond, 0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := tc.fs()
			f, err := fs.Create("db/log")
			if err != nil {
				t.Fatal(err)
			}
			data := hammer(t, f)
			if c, ok := fs.(*CountingFS); ok {
				if got := c.Stats.WriteOps.Load(); got != cwWriters*cwRecords {
					t.Fatalf("WriteOps %d, want %d", got, cwWriters*cwRecords)
				}
			}
			if c, ok := fs.(*CrashFS); ok {
				// The final sync covered everything; nothing may be lost.
				if got := crashRead(t, c.Crash(CrashOptions{}), "db/log"); !bytes.Equal(got, data) {
					t.Fatalf("post-crash image %d bytes, want %d", len(got), len(data))
				}
			}
		})
	}
}

// gatedSyncFS parks the first Sync of any file it creates until release is
// closed, announcing on entered that the sync has begun.
type gatedSyncFS struct {
	FS
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func newGatedSyncFS() *gatedSyncFS {
	g := &gatedSyncFS{FS: NewMem(), entered: make(chan struct{}), release: make(chan struct{})}
	g.armed.Store(true)
	return g
}

func (g *gatedSyncFS) Create(name string) (File, error) {
	f, err := g.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &gatedSyncFile{File: f, fs: g}, nil
}

type gatedSyncFile struct {
	File
	fs *gatedSyncFS
}

func (f *gatedSyncFile) Sync() error {
	if f.fs.armed.CompareAndSwap(true, false) {
		close(f.fs.entered)
		<-f.fs.release
	}
	return f.File.Sync()
}

// TestCrashSyncCoversOnlyBytesPresentAtStart: bytes appended while a sync
// is in flight are not made durable by it.
func TestCrashSyncCoversOnlyBytesPresentAtStart(t *testing.T) {
	gate := newGatedSyncFS()
	cfs := NewCrash(gate)
	cfs.SetRoot("db")
	f, err := cfs.Create("db/log")
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("synced"))
	done := make(chan error)
	go func() { done <- f.Sync() }()
	<-gate.entered
	f.Write([]byte("-appended-during-sync"))
	close(gate.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := crashRead(t, cfs.Crash(CrashOptions{}), "db/log"); string(got) != "synced" {
		t.Fatalf("post-crash = %q, want only the bytes present when the sync began", got)
	}
}

// TestCrashOverlappingSyncsNeverShrink: an earlier sync that finishes after
// a later, longer one leaves the longer durable image in place.
func TestCrashOverlappingSyncsNeverShrink(t *testing.T) {
	gate := newGatedSyncFS()
	cfs := NewCrash(gate)
	cfs.SetRoot("db")
	f, err := cfs.Create("db/log")
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("first"))
	done := make(chan error)
	go func() { done <- f.Sync() }() // parked, covers "first"
	<-gate.entered
	f.Write([]byte("+second"))
	if err := f.Sync(); err != nil { // not parked, covers both
		t.Fatal(err)
	}
	close(gate.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := crashRead(t, cfs.Crash(CrashOptions{}), "db/log"); string(got) != "first+second" {
		t.Fatalf("post-crash = %q, want %q", got, "first+second")
	}
}
