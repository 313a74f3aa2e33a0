package lsm

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"adcache/internal/vfs"
)

// gatedLogFS holds every log create while its gate is set, until the gate
// closes.
type gatedLogFS struct {
	vfs.FS
	mu   sync.Mutex
	gate chan struct{}
}

func (g *gatedLogFS) setGate(c chan struct{}) {
	g.mu.Lock()
	g.gate = c
	g.mu.Unlock()
}

func (g *gatedLogFS) Create(name string) (vfs.File, error) {
	g.mu.Lock()
	gate := g.gate
	g.mu.Unlock()
	if gate != nil && strings.HasSuffix(name, ".log") {
		<-gate
	}
	return g.FS.Create(name)
}

// TestSealDoesNoFileSystemWork pins that a seal only swaps the memtable
// and the log: with every log create held, writes still fill the memtable
// and seal it, because the log it switches to was prepared at open. Only
// the next seal, which needs the preparation the gate is holding, waits.
func TestSealDoesNoFileSystemWork(t *testing.T) {
	fs := &gatedLogFS{FS: vfs.NewMem()}
	db := mustOpen(t, testOptions(fs))
	db.waitPrepared()
	gate := make(chan struct{})
	fs.setGate(gate)

	sealed := make(chan int, 1)
	go func() {
		for i := 0; ; i++ {
			if err := db.Put(key(i), val(i)); err != nil {
				t.Error(err)
				sealed <- i
				return
			}
			// The flush of the sealed memtable waits for the held
			// preparation, so the memtable stays queued.
			if db.Metrics().ImmMemTables > 0 {
				sealed <- i + 1
				return
			}
		}
	}()
	var n int
	select {
	case n = <-sealed:
	case <-time.After(10 * time.Second):
		close(gate)
		t.Fatal("a write that filled the memtable waited for a log create")
	}
	close(gate)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if m := db.Metrics(); m.SealFallbacks != 0 || m.Flushes == 0 || m.ImmMemTables != 0 {
		t.Fatalf("seal fallbacks %d, flushes %d, queued %d; want 0, the sealed memtable flushed, none queued",
			m.SealFallbacks, m.Flushes, m.ImmMemTables)
	}
	for i := 0; i < n; i++ {
		if v, ok, err := db.Get(key(i)); err != nil || !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("Get(%d) = %q ok=%v err=%v", i, v, ok, err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPreparedLogFailureFallsBack: when preparing the next log fails, the
// seal that needed it creates its log on the commit path as every seal
// once did, counts the fallback, and prepares again; nothing acknowledged
// is lost and a reopen leaves no stray log.
func TestPreparedLogFailureFallsBack(t *testing.T) {
	ffs := vfs.NewFault(vfs.NewMem())
	opts := testOptions(ffs)
	opts.MemTableSize = 1 << 20
	db := mustOpen(t, opts)
	db.waitPrepared()
	ffs.Target(".log")
	ffs.FailCreates(1)
	// Round 0's seal uses the log prepared at open, and the preparation
	// after it fails; round 1's seal falls back; round 2's is prepared.
	for round := 0; round < 3; round++ {
		for i := round * 50; i < (round+1)*50; i++ {
			if err := db.Put(key(i), val(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if n := db.Metrics().SealFallbacks; n != 1 {
		t.Fatalf("seal fallbacks = %d, want 1", n)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = mustOpen(t, opts)
	defer db.Close()
	for i := 0; i < 150; i++ {
		if v, ok, err := db.Get(key(i)); err != nil || !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("after reopen Get(%d) = %q ok=%v err=%v", i, v, ok, err)
		}
	}
	db.waitPrepared()
	names, _ := ffs.List(opts.Dir)
	var logs []string
	for _, n := range names {
		if strings.HasSuffix(n, ".log") {
			logs = append(logs, n)
		}
	}
	if len(logs) != 2 {
		t.Fatalf("logs after reopen: %v, want the active one and the prepared one", logs)
	}
}
