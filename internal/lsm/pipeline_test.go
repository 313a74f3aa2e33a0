package lsm

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adcache/internal/keys"
	"adcache/internal/vfs"
)

// This file tests the pipelined commit (commit.go): WAL syncs of successive
// groups overlap, at most maxSyncsInFlight at once, groups publish in
// sequence order, a rotation drains the
// groups in flight, a failed sync fails the groups behind it, one WAL write
// carries a whole group, and table removal runs outside the engine lock.

// walGate parks every WAL sync while armed. Each parked sync is announced on
// parked; the test resumes it by sending on its release channel (nil lets
// the real sync run, an error fails it).
type walGate struct {
	vfs.FS
	armed  atomic.Bool
	parked chan chan error
}

func newWALGate(inner vfs.FS) *walGate {
	return &walGate{FS: inner, parked: make(chan chan error)}
}

func (g *walGate) Create(name string) (vfs.File, error) {
	f, err := g.FS.Create(name)
	if err != nil || !strings.HasSuffix(name, ".log") {
		return f, err
	}
	return &gatedWAL{File: f, g: g}, nil
}

type gatedWAL struct {
	vfs.File
	g *walGate
}

func (f *gatedWAL) Sync() error {
	if f.g.armed.Load() {
		release := make(chan error)
		f.g.parked <- release
		if err := <-release; err != nil {
			return err
		}
	}
	return f.File.Sync()
}

// next waits for the next parked WAL sync.
func (g *walGate) next(t *testing.T, what string) chan error {
	t.Helper()
	select {
	case r := <-g.parked:
		return r
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: no WAL sync started", what)
		return nil
	}
}

// open disarms the gate and, for a while, releases every sync that parks
// late, so a failing test can still close its DB.
func (g *walGate) open() {
	g.armed.Store(false)
	go func() {
		for {
			select {
			case r := <-g.parked:
				r <- nil
			case <-time.After(time.Second):
				return
			}
		}
	}()
}

// putAsync runs db.Put in a goroutine and returns its result channel.
func putAsync(db *DB, k, v []byte) chan error {
	done := make(chan error, 1)
	go func() { done <- db.Put(k, v) }()
	return done
}

// pending reports whether a result channel is still empty after a grace
// period long enough for a runnable goroutine to have finished.
func pending(done chan error) bool {
	select {
	case err := <-done:
		done <- err
		return false
	case <-time.After(50 * time.Millisecond):
		return true
	}
}

// parkTwo puts key 1, then key 2, from two goroutines, and returns once
// both groups are parked in their WAL syncs: the release channel and the
// Put result of each. If the second group cannot reach its sync while the
// first is parked, it unblocks both and fails the test.
func parkTwo(t *testing.T, db *DB, gate *walGate) (r1, r2, first, second chan error) {
	t.Helper()
	gate.armed.Store(true)
	first = putAsync(db, key(1), val(1))
	r1 = gate.next(t, "first writer")
	second = putAsync(db, key(2), val(2))
	select {
	case r2 = <-gate.parked:
	case <-time.After(5 * time.Second):
		gate.armed.Store(false)
		r1 <- nil
		<-first
		<-second
		t.Fatal("second writer's WAL sync did not start while the first was in flight")
	}
	gate.armed.Store(false)
	return r1, r2, first, second
}

// TestSyncsOverlap: while the first group's WAL sync is parked, a second
// writer's group must reach its own sync. With commitMu held from append to
// publish, the second writer would wait behind the first sync instead.
func TestSyncsOverlap(t *testing.T) {
	gate := newWALGate(vfs.NewMem())
	db := mustOpen(t, testOptions(gate))
	defer db.Close()

	r1, r2, first, second := parkTwo(t, db, gate)
	r2 <- nil
	r1 <- nil
	for _, done := range []chan error{first, second} {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestSyncsInFlightBounded: with maxSyncsInFlight (two) groups in their
// syncs, the next leader waits for a slot before it takes the queue, so the writers
// arriving meanwhile share one group and one sync instead of each leading a
// group and paying a sync of its own.
func TestSyncsInFlightBounded(t *testing.T) {
	gate := newWALGate(vfs.NewMem())
	db := mustOpen(t, testOptions(gate))
	defer db.Close()

	r1, r2, first, second := parkTwo(t, db, gate)
	groups := db.Metrics().WriteGroups
	gate.armed.Store(true)
	fail := func(format string, args ...any) {
		t.Helper()
		gate.open()
		r1 <- nil
		r2 <- nil
		t.Fatalf(format, args...)
	}
	var later []chan error
	for i := 3; i <= 6; i++ {
		later = append(later, putAsync(db, key(i), val(i)))
	}
	// One of the four holds commitMu waiting for a slot; all four are queued.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		db.pendMu.Lock()
		n := len(db.pending)
		db.pendMu.Unlock()
		if n == len(later) {
			break
		}
		if time.Now().After(deadline) {
			fail("%d of %d writers queued behind the two syncs in flight", n, len(later))
		}
	}
	select {
	case r := <-gate.parked:
		r <- nil
		fail("a third WAL sync started while two were in flight")
	case <-time.After(50 * time.Millisecond):
	}

	r1 <- nil // frees a slot: the four queued writers go as one group
	r3 := gate.next(t, "the queued writers' group")
	gate.armed.Store(false)
	r2 <- nil
	r3 <- nil
	for i, done := range append([]chan error{first, second}, later...) {
		if err := <-done; err != nil {
			t.Fatalf("Put %d: %v", i+1, err)
		}
	}
	if got := db.Metrics().WriteGroups - groups; got != 3 {
		t.Fatalf("%d write groups for two groups in flight plus four queued writers, want 3", got)
	}
}

// TestPublishInSeqOrder: the later group's sync finishing first must not
// make it visible before the earlier group publishes.
func TestPublishInSeqOrder(t *testing.T) {
	gate := newWALGate(vfs.NewMem())
	db := mustOpen(t, testOptions(gate))
	defer db.Close()

	r1, r2, first, second := parkTwo(t, db, gate)
	before := db.Metrics().LastSeq

	r2 <- nil // the later group's sync completes first
	if !pending(second) {
		t.Fatalf("second Put returned (%v) before the first group published", <-second)
	}
	if _, ok, _ := db.Get(key(2)); ok {
		t.Fatal("second group visible before the first published")
	}
	if got := db.Metrics().LastSeq; got != before {
		t.Fatalf("lastSeq moved %d -> %d before the first group published", before, got)
	}

	r1 <- nil
	for i, done := range []chan error{first, second} {
		if err := <-done; err != nil {
			t.Fatalf("Put %d: %v", i+1, err)
		}
	}
	for i := 1; i <= 2; i++ {
		if _, ok, _ := db.Get(key(i)); !ok {
			t.Fatalf("key %d missing after both groups published", i)
		}
	}
}

// TestSnapshotsSeeSeqPrefix: under concurrent writers whose syncs overlap,
// every read snapshot sees exactly the writes numbered up to its sequence —
// never seq s without every seq below it.
func TestSnapshotsSeeSeqPrefix(t *testing.T) {
	opts := testOptions(vfs.NewLatency(vfs.NewMem(), 20*time.Microsecond, 0))
	opts.MemTableSize = 64 << 20 // one memtable holds the whole run
	db := mustOpen(t, opts)
	defer db.Close()
	base := db.Metrics().LastSeq

	const writers, puts = 4, 100
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < puts; i++ {
				if err := db.Put(key(w*puts+i), val(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	checked := make(chan int)
	go func() {
		n := 0
		defer func() { checked <- n }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap, err := db.pinSnapshot()
			if err != nil {
				t.Error(err)
				return
			}
			var seen uint64
			it := snap.mem.NewIter()
			for ok := it.First(); ok; ok = it.Next() {
				if keys.InternalKey(it.Key()).Seq() <= snap.seq {
					seen++
				}
			}
			db.releaseVersion(snap.h)
			if want := snap.seq - base; seen != want {
				t.Errorf("snapshot at seq %d sees %d writes, want %d", snap.seq, seen, want)
				return
			}
			n++
		}
	}()
	wg.Wait()
	close(stop)
	if n := <-checked; n == 0 {
		t.Fatal("no snapshot checked")
	}
}

// TestSyncFailureFailsLaterGroups: a failed sync fails its group and every
// group appended behind it before the failure was seen; a group appended
// afterwards commits normally.
func TestSyncFailureFailsLaterGroups(t *testing.T) {
	gate := newWALGate(vfs.NewMem())
	db := mustOpen(t, testOptions(gate))
	defer db.Close()

	r1, r2, first, second := parkTwo(t, db, gate)
	r2 <- nil
	r1 <- vfs.ErrInjected
	for i, done := range []chan error{first, second} {
		if err := <-done; err == nil {
			t.Fatalf("Put %d succeeded behind a failed sync", i+1)
		}
	}
	if err := db.Put(key(3), val(3)); err != nil {
		t.Fatalf("Put appended after the failure: %v", err)
	}
	for i, want := range []bool{false, false, true} {
		if _, ok, _ := db.Get(key(i + 1)); ok != want {
			t.Fatalf("key %d visible=%v, want %v", i+1, ok, want)
		}
	}
}

// TestOneWALWritePerGroup pins the WAL's write count: one device write per
// group, whether the group carries one record or 64.
func TestOneWALWritePerGroup(t *testing.T) {
	cfs := vfs.NewCounting(vfs.NewMem())
	db := mustOpen(t, testOptions(cfs))
	defer db.Close()

	writes := func(do func() error) int64 {
		t.Helper()
		before := cfs.Stats.WriteOps.Load()
		if err := do(); err != nil {
			t.Fatal(err)
		}
		return cfs.Stats.WriteOps.Load() - before
	}
	if n := writes(func() error { return db.Put(key(1), val(1)) }); n != 1 {
		t.Fatalf("group of 1 record: %d writes, want 1", n)
	}
	b := NewBatch()
	for i := 0; i < 64; i++ {
		b.Put(key(i), val(i))
	}
	if n := writes(func() error { return db.Apply(b) }); n != 1 {
		t.Fatalf("group of 64 records: %d writes, want 1", n)
	}
}

// removeGate parks every table removal while armed, announcing it on
// entered.
type removeGate struct {
	vfs.FS
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (g *removeGate) Remove(name string) error {
	if strings.HasSuffix(name, ".sst") && g.armed.Load() {
		g.entered <- struct{}{}
		<-g.release
	}
	return g.FS.Remove(name)
}

// TestTableRemovalOffLock: deleting a compaction's obsolete tables happens
// after the engine lock is released, so a device slow to remove files
// delays neither readers nor write groups.
func TestTableRemovalOffLock(t *testing.T) {
	gate := &removeGate{FS: vfs.NewMem(), entered: make(chan struct{}), release: make(chan struct{})}
	opts := testOptions(gate)
	opts.DisableAutoCompaction = true
	db := mustOpen(t, opts)
	defer db.Close()
	for f := 0; f < l0CompactTrigger; f++ {
		for i := 0; i < 100; i++ {
			if err := db.Put(key(i), val(f*100+i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	gate.armed.Store(true)
	compacted := make(chan error, 1)
	go func() { compacted <- db.Compact() }()
	select {
	case <-gate.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("compaction removed no table")
	}
	done := make(chan error, 1)
	go func() {
		if _, ok, err := db.Get(key(7)); err != nil || !ok {
			done <- fmt.Errorf("Get: ok=%v err=%v", ok, err)
			return
		}
		done <- db.Put(key(1000), val(1000))
	}()
	var opErr error
	blocked := false
	select {
	case opErr = <-done:
	case <-time.After(5 * time.Second):
		blocked = true
	}
	gate.armed.Store(false)
	close(gate.release)
	if err := <-compacted; err != nil {
		t.Fatal(err)
	}
	if blocked {
		opErr = <-done
		t.Error("Get/Put blocked behind a table removal")
	}
	if opErr != nil {
		t.Fatal(opErr)
	}
}

// TestFillingPutSeals: in background mode the Put whose group fills the
// memtable seals it before returning, so a burst of writes that stops right
// there leaves no over-threshold memtable waiting for a next write.
func TestFillingPutSeals(t *testing.T) {
	db := mustOpen(t, testOptions(vfs.NewMem()))
	defer db.Close()
	for i := 0; i < 2000; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
		if mem, target := db.memBytes.Load(), db.memTarget.Load(); mem >= target {
			t.Fatalf("after Put %d the active memtable holds %d bytes, threshold %d", i, mem, target)
		}
	}
	if m := db.Metrics(); m.ImmMemTables == 0 && m.Flushes == 0 {
		t.Fatal("2000 puts never filled a memtable")
	}
}

// TestCrashRotationUnderLoad: the group that fills the memtable seals it only
// after every group still in flight on the old log has published into the
// old memtable; after a crash every acked write is back.
func TestCrashRotationUnderLoad(t *testing.T) {
	cfs := vfs.NewCrash(vfs.NewMem())
	gate := newWALGate(cfs)
	opts := testOptions(gate)
	opts.MemTableSize = 1 << 20
	opts.MinMemTableSize = 1 << 10
	db := mustOpen(t, opts)
	defer db.Close()
	for i := 0; i < 50; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}

	db.SetMemTableBudget(1) // the next group to publish finds the memtable full
	r1, r2, filler, inFlight := parkTwo(t, db, gate)
	r1 <- nil // the filling group publishes, then rotates
	if !pending(filler) {
		t.Fatalf("filling Put returned (%v) while a group was in flight on the old log", <-filler)
	}
	if m := db.Metrics(); m.ImmMemTables != 0 || m.Flushes != 0 {
		t.Fatalf("sealed before the in-flight group published: %d immutable, %d flushes", m.ImmMemTables, m.Flushes)
	}
	r2 <- nil
	for _, done := range []chan error{filler, inFlight} {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if m := db.Metrics(); m.ImmMemTables+int(m.Flushes) != 1 {
		t.Fatalf("after rotation: %d immutable, %d flushes, want one seal", m.ImmMemTables, m.Flushes)
	}
	if err := db.Put(key(100), val(100)); err != nil { // on the new log
		t.Fatal(err)
	}

	img := cfs.Crash(vfs.CrashOptions{})
	db.Close()
	db2 := mustOpen(t, testOptions(img))
	defer db2.Close()
	for i := 0; i <= 100; i++ {
		if i == 50 {
			i = 100 // keys 50..99 were never written
		}
		if v, ok, err := db2.Get(key(i)); err != nil || !ok || string(v) != string(val(i)) {
			t.Fatalf("acked key %d after crash: %q ok=%v err=%v", i, v, ok, err)
		}
	}
}

// TestCrashStressMultiWriter is crashStress with concurrent writers: four
// goroutines mixing Puts and three-key Apply batches on a device whose syncs
// take long enough that several groups are in flight when the crash lands,
// and whose tiny memtables rotate the WAL under that load. Every acked write
// survives, and each writer's in-flight operation — a Put or a whole batch —
// is all-or-nothing. The crash keeps or drops each unsynced tail whole: the
// WAL frames records, not batches, so a tail torn inside a group may keep a
// prefix of a batch (Batch documents that), but a group is one device write
// and must never be split by the crash point itself.
func TestCrashStressMultiWriter(t *testing.T) {
	cycles := 30
	if testing.Short() {
		cycles = 10
	}
	crashStressMultiWriter(t, cycles, 0x9e37)
}

// mwOp is one writer operation: a Put (one key) or a batch (several keys,
// one value).
type mwOp struct {
	keys  []string
	value string
}

func crashStressMultiWriter(t *testing.T, cycles int, seed int64) {
	t.Helper()
	const writers = 4
	rng := rand.New(rand.NewSource(seed))
	var fs vfs.FS = vfs.NewMem()
	model := map[string]string{}
	crashes := 0
	for cycle := 0; cycle < cycles; cycle++ {
		cfs := vfs.NewCrash(fs)
		cfs.ArmCrash(int64(rng.Intn(600) + 20))
		opts := crashOpts(vfs.NewLatency(cfs, 20*time.Microsecond, 0), "crashdb")
		opts.InlineCompaction = false
		opts.BgMaxRetries = 2
		opts.BgRetryBase = time.Millisecond
		opts.BgRetryMaxDelay = 2 * time.Millisecond

		acked := make([]map[string]string, writers)
		inflight := make([]*mwOp, writers)
		if db, err := Open(opts); err == nil {
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				acked[w] = map[string]string{}
				wg.Add(1)
				go func(w int, r *rand.Rand) {
					defer wg.Done()
					// Writer w owns the keys i with i%writers == w, so the
					// writers' models never overlap.
					own := func() string { return string(key(r.Intn(crashKeyPool/writers)*writers + w)) }
					for j := 0; j < 60; j++ {
						op := &mwOp{value: fmt.Sprintf("c%03d-w%d-op%03d-%s", cycle, w, j, strings.Repeat("v", 60))}
						var err error
						if r.Intn(3) == 0 {
							b := NewBatch()
							for n := 0; n < 3; n++ {
								k := own()
								op.keys = append(op.keys, k)
								b.Put([]byte(k), []byte(op.value))
							}
							err = db.Apply(b)
						} else {
							op.keys = []string{own()}
							err = db.Put([]byte(op.keys[0]), []byte(op.value))
						}
						if err != nil {
							inflight[w] = op
							return
						}
						for _, k := range op.keys {
							acked[w][k] = op.value
						}
					}
				}(w, rand.New(rand.NewSource(rng.Int63())))
			}
			wg.Wait()
			db.Close()
		}
		if cfs.Crashed() {
			crashes++
		}
		for w := range acked {
			for k, v := range acked[w] {
				model[k] = v
			}
		}
		fs = cfs.Crash(vfs.CrashOptions{Seed: seed ^ int64(cycle), KeepAllProb: 0.3})

		db2, err := Open(crashOpts(fs, "crashdb"))
		if err != nil {
			t.Fatalf("cycle %d: reopen after crash: %v", cycle, err)
		}
		if _, err := db2.VerifyIntegrity(); err != nil {
			db2.Close()
			t.Fatalf("cycle %d: integrity after crash: %v", cycle, err)
		}
		got := map[string]string{}
		for i := 0; i < crashKeyPool; i++ {
			v, ok, err := db2.Get(key(i))
			if err != nil {
				db2.Close()
				t.Fatalf("cycle %d: Get(%s): %v", cycle, key(i), err)
			}
			if ok {
				got[string(key(i))] = string(v)
			}
		}
		db2.Close()
		exempt := map[string]bool{}
		for w, op := range inflight {
			if op == nil {
				continue
			}
			// All of the op's keys hold its value, or none does (their
			// acked values stay).
			applied := 0
			for _, k := range op.keys {
				exempt[k] = true
				if got[k] == op.value {
					applied++
				}
			}
			if applied != 0 && applied != len(op.keys) {
				t.Fatalf("cycle %d: writer %d's in-flight batch half-applied: %d of %d keys", cycle, w, applied, len(op.keys))
			}
			for _, k := range op.keys {
				if applied == 0 && got[k] != model[k] {
					t.Fatalf("cycle %d: in-flight key %s = %q, want acked %q", cycle, k, got[k], model[k])
				}
				// The crash resolved the ambiguity; adopt the durable truth.
				model[k] = got[k]
			}
		}
		for i := 0; i < crashKeyPool; i++ {
			k := string(key(i))
			if !exempt[k] && got[k] != model[k] {
				t.Fatalf("cycle %d: key %s = %q, acked %q", cycle, k, got[k], model[k])
			}
		}
	}
	if crashes < cycles/2 {
		t.Fatalf("only %d/%d cycles actually crashed; arm range too large", crashes, cycles)
	}
}
