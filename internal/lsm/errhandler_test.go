package lsm

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"adcache/internal/block"
	"adcache/internal/sstable"
	"adcache/internal/vfs"
)

// Tests for the background error handler: classification, backoff,
// self-healing retries of transient faults, corruption-triggered read-only
// degraded mode, Resume, and paranoid pre-install verification.

func TestClassifyBgError(t *testing.T) {
	cases := []struct {
		err  error
		want BgErrorKind
	}{
		{errors.New("plain io failure"), BgTransient},
		{vfs.ErrInjected, BgTransient},
		{fmt.Errorf("wrap: %w", vfs.ErrNoSpace), BgNoSpace},
		{fmt.Errorf("wrap: %w", sstable.ErrCorrupt), BgCorruption},
		{fmt.Errorf("wrap: %w", block.ErrCorrupt), BgCorruption},
		// A paranoid reject wraps a corruption error, but the bad table was
		// discarded before install: it must stay retryable.
		{&paranoidError{fileNum: 7, err: fmt.Errorf("x: %w", sstable.ErrCorrupt)}, BgTransient},
	}
	for _, c := range cases {
		if got := classifyBgError(c.err); got != c.want {
			t.Errorf("classify(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestBackoffDelay(t *testing.T) {
	base, cap := 5*time.Millisecond, 40*time.Millisecond
	want := []time.Duration{5, 10, 20, 40, 40, 40}
	for i, w := range want {
		if got := backoffDelay(base, cap, i+1); got != w*time.Millisecond {
			t.Errorf("attempt %d: %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
	if got := backoffDelay(time.Second, 100*time.Millisecond, 1); got != 100*time.Millisecond {
		t.Errorf("base above cap: %v", got)
	}
}

// waitForMetrics polls the DB until cond holds or the deadline passes.
func waitForMetrics(t *testing.T, db *DB, what string, cond func(Metrics) bool) Metrics {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		m := db.Metrics()
		if cond(m) {
			return m
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s; metrics: state=%s kind=%s retries=%d flushes=%d lastErr=%q",
				what, m.BgState, m.BgErrorKind, m.BgRetries, m.Flushes, m.BgLastError)
		}
		time.Sleep(time.Millisecond)
	}
}

func fastRetryOpts(fs vfs.FS) Options {
	opts := testOptions(fs)
	opts.bgRetryBase = time.Millisecond
	opts.bgRetryMaxDelay = 4 * time.Millisecond
	return opts
}

// fillMemTable writes keys from base until the active memtable seals, which
// queues a background flush.
// fillMemTable writes until the active memtable rotates exactly once: the
// commit that crosses the flush threshold seals it, leaving a fresh (empty
// or near-empty) active memtable. Detecting the seal directly keeps the
// helper independent of the memtable's per-entry charge model.
func fillMemTable(t *testing.T, db *DB, base int) {
	t.Helper()
	for i := 0; ; i++ {
		if err := db.Put(key(base+i), val(base+i)); err != nil {
			t.Fatalf("Put(%d): %v", base+i, err)
		}
		db.mu.RLock()
		sealed := len(db.imm) > 0 || db.mem.Empty()
		db.mu.RUnlock()
		if sealed {
			return
		}
	}
}

// TestBgTransientSelfHeals injects one failing SSTable create into the
// background flush: the worker must classify it transient, retry with
// backoff, and converge to a healthy state with the flush completed — no
// manual intervention, no failed foreground writes.
func TestBgTransientSelfHeals(t *testing.T) {
	fault := vfs.NewFault(vfs.NewMem())
	db := mustOpen(t, fastRetryOpts(fault))
	defer db.Close()

	fault.Target(".sst")
	fault.FailCreates(1)
	fillMemTable(t, db, 0)

	m := waitForMetrics(t, db, "self-heal", func(m Metrics) bool {
		return m.Flushes >= 1 && m.BgState == "healthy" && m.ImmMemTables == 0
	})
	if m.BgRetries < 1 {
		t.Fatalf("BgRetries = %d, want >= 1 (the injected failure must be visible)", m.BgRetries)
	}
	if v, ok, err := db.Get(key(3)); err != nil || !ok || string(v) != string(val(3)) {
		t.Fatalf("data after self-heal: %q ok=%v err=%v", v, ok, err)
	}
}

// TestBgMaxRetriesEscalatesToReadOnly: a persistent transient fault exhausts
// bgMaxRetries, the DB degrades to read-only (writes fail fast with
// ErrReadOnly), and clearing the fault plus Resume restores service.
func TestBgMaxRetriesEscalatesToReadOnly(t *testing.T) {
	fault := vfs.NewFault(vfs.NewMem())
	opts := fastRetryOpts(fault)
	opts.bgMaxRetries = 2
	db := mustOpen(t, opts)
	defer db.Close()

	fault.Target(".sst")
	fault.FailCreates(1000)
	fillMemTable(t, db, 0)

	waitForMetrics(t, db, "read-only escalation", func(m Metrics) bool {
		return m.BgState == "read-only"
	})
	if err := db.Put(key(99999), val(1)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Put in read-only mode: %v, want ErrReadOnly", err)
	}
	if err := db.Flush(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Flush in read-only mode: %v, want ErrReadOnly", err)
	}
	// Reads still work: the tree is intact, only background writes failed.
	if v, ok, err := db.Get(key(3)); err != nil || !ok || string(v) != string(val(3)) {
		t.Fatalf("read in read-only mode: %q ok=%v err=%v", v, ok, err)
	}

	fault.Reset()
	if err := db.Resume(); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	m := waitForMetrics(t, db, "post-resume health", func(m Metrics) bool {
		return m.BgState == "healthy" && m.Flushes >= 1 && m.ImmMemTables == 0
	})
	if m.Resumes != 1 {
		t.Fatalf("Resumes = %d, want 1", m.Resumes)
	}
	if err := db.Put(key(99999), val(1)); err != nil {
		t.Fatalf("Put after Resume: %v", err)
	}
}

// TestBgRetriesBoundedByDefault: with no bound set, a device that never
// recovers fails defaultBgMaxRetries times in a row, then the DB parks
// read-only instead of retrying forever; Resume recovers once the faults
// stop.
func TestBgRetriesBoundedByDefault(t *testing.T) {
	fault := vfs.NewFault(vfs.NewMem())
	db := mustOpen(t, fastRetryOpts(fault))
	defer db.Close()

	fault.Target(".sst")
	fault.FailProbability(1, 1) // every table operation fails
	fillMemTable(t, db, 0)

	m := waitForMetrics(t, db, "read-only after the default bound", func(m Metrics) bool {
		return m.BgState == "read-only"
	})
	if m.BgRetries != defaultBgMaxRetries {
		t.Fatalf("BgRetries = %d, want the default bound %d", m.BgRetries, defaultBgMaxRetries)
	}
	if err := db.Put(key(99999), val(1)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Put in read-only mode: %v, want ErrReadOnly", err)
	}

	fault.Reset()
	if err := db.Resume(); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	waitForMetrics(t, db, "health after Resume", func(m Metrics) bool {
		return m.BgState == "healthy" && m.Flushes >= 1 && m.ImmMemTables == 0
	})
	if err := db.Put(key(99999), val(1)); err != nil {
		t.Fatalf("Put after Resume: %v", err)
	}
}

// corruptSSTInPlace flips one byte in the middle of the given file and
// returns a function that restores it. MemFS hands out shared file objects,
// so the change is visible to already-open readers.
func corruptSSTInPlace(t *testing.T, fs vfs.FS, path string) (restore func()) {
	t.Helper()
	f, err := fs.Open(path)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	size, err := f.Size()
	if err != nil || size == 0 {
		t.Fatalf("size %s: %d %v", path, size, err)
	}
	off := size / 2
	orig := make([]byte, 1)
	if _, err := f.ReadAt(orig, off); err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	if _, err := f.WriteAt([]byte{orig[0] ^ 0xFF}, off); err != nil {
		t.Fatalf("corrupt %s: %v", path, err)
	}
	return func() {
		if _, err := f.WriteAt(orig, off); err != nil {
			t.Fatalf("restore %s: %v", path, err)
		}
	}
}

// createClock records when each SSTable create reaches the file system.
type createClock struct {
	vfs.FS
	mu    sync.Mutex
	times []time.Time
}

func (c *createClock) Create(name string) (vfs.File, error) {
	if strings.HasSuffix(name, ".sst") {
		c.mu.Lock()
		c.times = append(c.times, time.Now())
		c.mu.Unlock()
	}
	return c.FS.Create(name)
}

// TestBgRetriesBackOffByDefault runs the production worker with the
// default retry settings against a flush whose table create fails three
// times: each retry waits out the backoff (5 ms, doubling), so a failing
// device is not hammered in a loop.
func TestBgRetriesBackOffByDefault(t *testing.T) {
	const fails = 3
	fault := vfs.NewFault(vfs.NewMem())
	clock := &createClock{FS: fault}
	db := mustOpen(t, testOptions(clock))
	defer db.Close()

	fault.Target(".sst")
	fault.FailCreates(fails)
	fillMemTable(t, db, 0)
	m := waitForMetrics(t, db, "the flush to succeed", func(m Metrics) bool {
		return m.Flushes >= 1 && m.BgState == "healthy"
	})
	if m.BgRetries != fails {
		t.Fatalf("BgRetries = %d, want %d", m.BgRetries, fails)
	}
	clock.mu.Lock()
	times := append([]time.Time(nil), clock.times...)
	clock.mu.Unlock()
	if len(times) < fails+1 {
		t.Fatalf("%d table creates, want at least %d", len(times), fails+1)
	}
	for i := 1; i <= fails; i++ {
		gap, want := times[i].Sub(times[i-1]), (5*time.Millisecond)<<(i-1)
		t.Logf("retry %d: %v after the failure", i, gap)
		if gap < want {
			t.Errorf("retry %d came %v after the failure, want at least %v", i, gap, want)
		}
	}
}

// TestBgCorruptionParksReadOnlyAndResumeRecovers: compaction reading a
// corrupted durable SSTable must park the DB read-only (retrying cannot fix
// durable corruption); restoring the bytes and calling Resume recovers.
func TestBgCorruptionParksReadOnlyAndResumeRecovers(t *testing.T) {
	fs := vfs.NewMem()
	opts := testOptions(fs)
	opts.disableAutoCompaction = true // stage L0 deterministically
	opts.bgRetryBase = time.Millisecond
	db := mustOpen(t, opts)
	defer db.Close()

	for round := 0; round < 2; round++ {
		for i := 0; i < 400; i++ {
			if err := db.Put(key(i), val(i+round*10000)); err != nil {
				t.Fatalf("Put: %v", err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
	}
	names, err := fs.List("testdb")
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	var sst string
	for _, n := range names {
		if typ, _ := parseFileName(n); typ == "sst" {
			sst = "testdb/" + n
			break
		}
	}
	if sst == "" {
		t.Fatal("no sstable on disk after flushes")
	}

	restore := corruptSSTInPlace(t, fs, sst)
	err = db.Compact()
	if err == nil {
		t.Fatal("Compact over corrupted table succeeded")
	}
	if !errors.Is(err, sstable.ErrCorrupt) && !errors.Is(err, block.ErrCorrupt) {
		t.Fatalf("Compact error %v, want a corruption error", err)
	}
	m := db.Metrics()
	if m.BgState != "read-only" || m.BgErrorKind != "corruption" {
		t.Fatalf("after corruption: state=%s kind=%s", m.BgState, m.BgErrorKind)
	}
	if err := db.Put(key(0), val(0)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Put in read-only mode: %v, want ErrReadOnly", err)
	}

	restore()
	if err := db.Resume(); err != nil {
		t.Fatalf("Resume after restoring bytes: %v", err)
	}
	m = db.Metrics()
	if m.BgState != "healthy" || m.Resumes != 1 {
		t.Fatalf("after Resume: state=%s resumes=%d", m.BgState, m.Resumes)
	}
	if err := db.Put(key(0), val(42)); err != nil {
		t.Fatalf("Put after Resume: %v", err)
	}
	if _, err := db.VerifyIntegrity(); err != nil {
		t.Fatalf("integrity after Resume: %v", err)
	}
}

// TestParanoidChecksRejectAndRetry: a silently corrupted flush output must
// be caught by the pre-install verification, deleted, and rewritten — the
// corruption never reaches the tree and the DB stays healthy.
func TestParanoidChecksRejectAndRetry(t *testing.T) {
	fault := vfs.NewFault(vfs.NewMem())
	opts := fastRetryOpts(fault)
	opts.paranoidChecks = true
	db := mustOpen(t, opts)
	defer db.Close()

	fault.Target(".sst")
	fault.CorruptWrites(1)
	fillMemTable(t, db, 0)

	m := waitForMetrics(t, db, "paranoid reject + rewrite", func(m Metrics) bool {
		return m.Flushes >= 1 && m.BgState == "healthy" && m.ImmMemTables == 0
	})
	if m.BgRetries < 1 {
		t.Fatalf("BgRetries = %d, want >= 1 (the rejected table must be visible)", m.BgRetries)
	}
	if _, err := db.VerifyIntegrity(); err != nil {
		t.Fatalf("integrity after paranoid retry: %v", err)
	}
	if v, ok, err := db.Get(key(3)); err != nil || !ok || string(v) != string(val(3)) {
		t.Fatalf("data after paranoid retry: %q ok=%v err=%v", v, ok, err)
	}
}

// TestParanoidChecksInline: with inline compaction there is no background
// retry loop — the paranoid reject surfaces to the caller, and the next
// attempt (fault exhausted) succeeds.
func TestParanoidChecksInline(t *testing.T) {
	fault := vfs.NewFault(vfs.NewMem())
	opts := testOptions(fault)
	opts.InlineCompaction = true
	opts.paranoidChecks = true
	db := mustOpen(t, opts)
	defer db.Close()

	for i := 0; i < 100; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	fault.Target(".sst")
	fault.CorruptWrites(1)
	err := db.Flush()
	var pe *paranoidError
	if !errors.As(err, &pe) {
		t.Fatalf("Flush with corrupting device: %v, want paranoid reject", err)
	}
	if err := db.Flush(); err != nil {
		t.Fatalf("retry Flush: %v", err)
	}
	if _, err := db.VerifyIntegrity(); err != nil {
		t.Fatalf("integrity: %v", err)
	}
}

// TestWALRemoveFailureNonFatal: failing to delete a retired WAL after a
// durably complete flush is cosmetic — the flush succeeds, a counter ticks,
// and the next reopen's orphan sweep collects the leftover file.
func TestWALRemoveFailureNonFatal(t *testing.T) {
	fault := vfs.NewFault(vfs.NewMem())
	opts := testOptions(fault)
	opts.InlineCompaction = true
	db := mustOpen(t, opts)

	for i := 0; i < 50; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	fault.Target(".log")
	fault.FailRemoves(1)
	if err := db.Flush(); err != nil {
		t.Fatalf("Flush with failing WAL remove: %v", err)
	}
	m := db.Metrics()
	if m.WALRemoveErrors != 1 {
		t.Fatalf("WALRemoveErrors = %d, want 1", m.WALRemoveErrors)
	}
	if m.BgState != "healthy" {
		t.Fatalf("BgState = %s after cosmetic failure", m.BgState)
	}
	countLogs := func() int {
		names, err := fault.List("testdb")
		if err != nil {
			t.Fatalf("List: %v", err)
		}
		n := 0
		for _, name := range names {
			if typ, _ := parseFileName(name); typ == "log" {
				n++
			}
		}
		return n
	}
	if got := countLogs(); got != 2 {
		t.Fatalf("log files after failed remove = %d, want 2 (active + leftover)", got)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	fault.Reset()
	db = mustOpen(t, opts)
	defer db.Close()
	if got := countLogs(); got != 1 {
		t.Fatalf("log files after reopen = %d, want 1 (orphan sweep)", got)
	}
	if v, ok, err := db.Get(key(3)); err != nil || !ok || string(v) != string(val(3)) {
		t.Fatalf("data after reopen: %q ok=%v err=%v", v, ok, err)
	}
}

// TestMixedFaultAvailability is the fixed-seed randomized smoke: a device
// that fails a small fraction of all operations. Foreground writes may fail,
// but the engine must keep serving, self-heal its background work once the
// faults stop, and retain every acknowledged write.
func TestMixedFaultAvailability(t *testing.T) {
	fault := vfs.NewFault(vfs.NewMem())
	opts := fastRetryOpts(fault)
	db := mustOpen(t, opts)
	defer db.Close()

	fault.FailProbability(0xfa017, 0.002)
	acked := map[string]string{}
	ambiguous := map[string]bool{}
	failed := 0
	for i := 0; i < 3000; i++ {
		k := key(i % 64)
		v := val(i)
		if err := db.Put(k, v); err != nil {
			// The op may still have committed (e.g. the group's WAL sync
			// succeeded and a later seal step failed): the key's state is
			// unknown until the next acked write to it.
			ambiguous[string(k)] = true
			delete(acked, string(k))
			failed++
			continue
		}
		// A successful Put is the key's newest version: its state is known
		// again even if an earlier op on it failed.
		delete(ambiguous, string(k))
		acked[string(k)] = string(v)
	}
	if failed == 0 {
		t.Log("no injected foreground failures this seed; availability still verified")
	}

	fault.Reset()
	if err := db.Flush(); err != nil {
		t.Fatalf("Flush after faults cleared: %v", err)
	}
	m := waitForMetrics(t, db, "post-fault health", func(m Metrics) bool {
		return m.BgState == "healthy" && m.ImmMemTables == 0
	})
	t.Logf("foreground failures: %d, background retries: %d", failed, m.BgRetries)
	for k, want := range acked {
		v, ok, err := db.Get([]byte(k))
		if err != nil || !ok || string(v) != want {
			t.Fatalf("acked key %s lost: %q ok=%v err=%v", k, v, ok, err)
		}
	}
	if _, err := db.VerifyIntegrity(); err != nil {
		t.Fatalf("integrity: %v", err)
	}
}
