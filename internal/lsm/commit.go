package lsm

import (
	"time"

	"adcache/internal/keys"
	"adcache/internal/manifest"
	"adcache/internal/memtable"
	"adcache/internal/metrics"
	"adcache/internal/vfs"
	"adcache/internal/wal"
)

// This file implements the write-group commit pipeline (RocksDB-style group
// commit with pipelined writes) and the write-path backpressure that
// replaces inline compaction.
//
// Writers enqueue themselves on d.pending, then contend for commitMu. The
// winner becomes the group leader and drains the whole queue into one group,
// which passes through three stages:
//
//  1. Append, under commitMu: backpressure, a sync slot (at most
//     maxSyncsInFlight groups sync at once), sequence allocation, one WAL
//     write for every record of the group, and a place at the tail of the
//     publish chain. The queue is drained only once the slot is held, so
//     every writer that arrived while the leader waited joins its group.
//  2. Sync, under no engine lock: the group's own log.Sync covers its
//     records, which were written before the sync began. commitMu is free,
//     so the next group appends and syncs while this one is in flight.
//  3. Publish, strictly in sequence order: the group waits until its
//     predecessor has published (or failed), then applies to the memtable
//     under the exclusive mu and advances lastSeq. A reader therefore never
//     sees a group without every group before it.
//
// A writer that finds itself already taken into an earlier leader's group
// waits for that group's outcome without doing any work — the coalescing
// that turns N contending writers into one WAL write and one fsync.
//
// The leader of the group that filled the memtable rotates the WAL once the
// group has published: it drains the chain under commitMu, so no record in
// the old log is applied to the new memtable, then seals.
//
// Failure rule: a failed sync fails its group and every later group that had
// already appended when the failure was seen; groups appended afterwards are
// unaffected. A failed WAL write fails its group, and the next group seals
// to a fresh log before it appends, so no acknowledged record lands behind
// the torn bytes where replay would never reach it. Flush, Close and WAL
// rotation drain the chain before they touch the log or the memtable.
// InlineCompaction keeps all three stages and the seal under commitMu, so
// its seal points stay those of the single-threaded engine.

// maxSyncsInFlight bounds the groups in their WAL sync at once. Two let one
// group's sync overlap the next one's. A leader that finds both slots taken
// waits for one while holding commitMu, so the writers arriving meanwhile
// queue up behind it and share its sync. With no bound, each of N contending
// writers would lead a group of one and pay an fsync of its own. Even two
// cost throughput on a device that serialises flushes (DESIGN.md, "Device
// assumption, measured").
const maxSyncsInFlight = 2

// commitWaiter carries one writer's operations into a write group.
type commitWaiter struct {
	ops []batchOp
	// group is the write group that took the waiter; set by its leader under
	// commitMu.
	group *writeGroup
}

// writeGroup is one group's passage through the pipeline.
type writeGroup struct {
	waiters  []*commitWaiter
	startSeq uint64
	total    int
	log      *wal.Writer // the log its records went to
	// prev is the group before it in publish order; cleared once waited on
	// so completed groups do not chain up in memory.
	prev *writeGroup
	// done closes once the group has published or failed; err and poison
	// are final by then.
	done chan struct{}
	err  error
	// poison is set when the group failed its own sync, or inherited the
	// failure: the last sequence number appended when the sync failure was
	// seen. A later group starting at or below it fails too.
	poison uint64
	// full reports the active memtable at or past its flush threshold after
	// the group's apply: its leader then seals.
	full bool
	// wait is the leader's time blocked on other groups: for commitMu, for
	// a sync slot, for its predecessor to publish.
	wait time.Duration
}

// commit batches ops into the next write group and blocks until the group
// that includes them publishes (or fails as a unit).
func (d *DB) commit(ops []batchOp) error {
	if len(ops) == 0 {
		return nil
	}
	if d.closing.Load() {
		return ErrClosed
	}
	start := time.Now()
	defer d.metrics.commitNanos.ObserveSince(start)

	w := &commitWaiter{ops: ops}
	d.pendMu.Lock()
	d.pending = append(d.pending, w)
	d.pendMu.Unlock()

	d.commitMu.Lock()
	if g := w.group; g != nil {
		// An earlier leader took us into its group: all of our time is
		// spent waiting on other writers' work.
		d.commitMu.Unlock()
		<-g.done
		d.metrics.commitWait.ObserveSince(start)
		return g.err
	}
	// We are the leader.
	g := &writeGroup{done: make(chan struct{}), wait: time.Since(start)}
	inline := d.opts.InlineCompaction
	err := d.appendGroup(g)
	if !inline {
		d.commitMu.Unlock()
	}
	if err == nil {
		err = d.syncAndPublish(g)
	}
	d.metrics.commitWait.Observe(int64(g.wait))
	if inline {
		if err == nil && g.full {
			// The single-threaded seal point: right after the apply that
			// filled the memtable, before any later group appends.
			err = d.sealMemTable()
			if err == nil {
				err = d.drainAndCompact(!d.opts.disableAutoCompaction)
			}
		}
		d.commitMu.Unlock()
		g.finish(err)
		return err
	}
	g.finish(err)
	if err == nil && g.full {
		err = d.rotate()
	}
	return err
}

// finish records the group's outcome and wakes its followers and its
// successor in the publish chain.
func (g *writeGroup) finish(err error) {
	g.err = err
	close(g.done)
}

// appendGroup is stage 1: backpressure, a sync slot, the group itself, one
// WAL write for all of its records, and a place in the publish chain. A
// failure before the write fails every writer queued so far, as one group;
// nothing is linked into the chain unless every record reached the log.
// Caller holds commitMu.
func (d *DB) appendGroup(g *writeGroup) error {
	var err error
	if d.closing.Load() {
		err = ErrClosed
	} else if !d.opts.InlineCompaction {
		err = d.waitForWriteRoom()
	}
	if err == nil && d.walBroken {
		// A failed write may have left part of a frame at the log's end, and
		// replay stops there: nothing may be appended behind it.
		d.drainLocked()
		if err = d.sealMemTable(); err == nil {
			d.notifyWorker()
		}
	}
	if err == nil {
		t := time.Now()
		d.syncSlots <- struct{}{}
		g.wait += time.Since(t)
	}
	// Take the queue only now: writers that arrived while the leader waited
	// for room or for a slot join its group and share its sync.
	d.pendMu.Lock()
	g.waiters = d.pending
	d.pending = nil
	d.pendMu.Unlock()
	for _, x := range g.waiters {
		x.group = g
	}
	if err != nil {
		return err
	}

	for _, x := range g.waiters {
		g.total += len(x.ops)
	}
	d.metrics.writeGroupOps.Observe(int64(g.total))
	// Sequence numbers advance even if the WAL write fails: some bytes may
	// have reached the log, and a later group must not reuse their numbers.
	g.startSeq = d.seqAlloc.Load() + 1
	d.seqAlloc.Add(uint64(g.total))

	// The group's records reach the log in one write before any becomes
	// visible: a crash keeps the write or drops it, and a torn tail replays
	// a prefix of intact records.
	seq := g.startSeq
	for _, x := range g.waiters {
		for _, op := range x.ops {
			d.log.Add(wal.Record{Seq: seq, Kind: op.kind, Key: op.key, Value: op.value})
			seq++
		}
	}
	if err := d.log.Flush(); err != nil {
		d.walBroken = true
		<-d.syncSlots
		return err
	}
	g.log = d.log
	g.prev = d.tail
	d.tail = g
	return nil
}

// syncAndPublish is stages 2 and 3: the group's own WAL sync, with no engine
// lock held, then the in-order publish. Once it returns nil every write in
// the group is durable (the contract the crash sweeps verify) and visible.
func (d *DB) syncAndPublish(g *writeGroup) error {
	err := g.log.Sync()
	if err != nil {
		// Read before the slot is freed, so no group appended after the
		// failure was seen falls under it.
		g.poison = d.seqAlloc.Load()
	}
	<-d.syncSlots
	if p := g.prev; p != nil {
		g.prev = nil
		t := time.Now()
		<-p.done
		g.wait += time.Since(t)
		if p.err != nil && g.startSeq <= p.poison {
			g.poison = max(g.poison, p.poison)
			if err == nil {
				err = p.err
			}
		}
	}
	if err != nil {
		return err
	}
	return d.publish(g)
}

// publish applies the group to the memtable and advances lastSeq, under the
// exclusive mu. Caller has seen the group's predecessor complete.
func (d *DB) publish(g *writeGroup) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	// The group's counters advance once, after the apply loop: OnWrite may
	// close a tuning window, and a window prices whole groups.
	var stall *metrics.Counter
	if d.opts.InlineCompaction {
		// Count-only stall accounting, mirroring the pre-concurrency
		// engine: the stall manifests as inline compaction latency.
		if n := len(d.version.Levels[0]); n >= l0StopTrigger {
			stall = d.metrics.stallStops
		} else if n >= l0CompactTrigger {
			stall = d.metrics.stallSlowdowns
		}
	}
	var userBytes int64
	seq := g.startSeq
	for _, x := range g.waiters {
		for _, op := range x.ops {
			d.mem.Set(op.key, seq, op.kind, op.value)
			userBytes += int64(len(op.key) + len(op.value))
			// Write-through cache coherence happens inside the exclusive
			// section, as in the single-threaded engine: no reader can
			// observe the cache behind the tree.
			d.strategy.OnWrite(op.key, op.value, op.kind == keys.KindDelete)
			seq++
		}
	}
	d.lastSeq = g.startSeq + uint64(g.total) - 1
	if stall != nil {
		stall.Inc()
	}
	d.metrics.userBytes.Add(userBytes)
	d.metrics.writeGroups.Inc()
	g.full = d.memFullLocked()
	return nil
}

// memFullLocked reports the active memtable at or past its flush threshold,
// Options.MemTableSize. Caller holds d.mu, shared or exclusive.
func (d *DB) memFullLocked() bool {
	return d.mem.ApproximateSize() >= d.opts.MemTableSize
}

// rotate is background mode's seal point, run by the leader of a group that
// filled the memtable once the group has published. It drains the chain —
// the groups still in flight have their records in the old log, so they
// must reach the old memtable — then seals if the memtable is still full (a
// concurrent leader may have sealed it first) and wakes the flush worker. A
// closing or read-only engine skips the seal: the group's writes are durable
// either way, and the next write reports the state.
func (d *DB) rotate() error {
	d.commitMu.Lock()
	defer d.commitMu.Unlock()
	d.drainLocked()
	d.mu.RLock()
	_, _, stateErr := d.writePressureLocked()
	full := stateErr == nil && d.memFullLocked()
	d.mu.RUnlock()
	if !full {
		return nil
	}
	if err := d.sealMemTable(); err != nil {
		return err
	}
	d.notifyWorker()
	return nil
}

// drainLocked waits until every group in the publish chain has published or
// failed. Groups complete in order, so the tail completing means all have.
// Caller holds commitMu, so no group can join meanwhile.
func (d *DB) drainLocked() {
	if d.tail != nil {
		<-d.tail.done
	}
}

// writePressureLocked reports what stands between a write group and the
// memtable: an error that fails the group, a stop condition it has to wait
// out (immutable queue full, or L0 at its stop trigger), or the slowdown
// band (L0 between the compact and stop triggers). Caller holds d.mu,
// shared or exclusive.
func (d *DB) writePressureLocked() (stop, slowdown bool, err error) {
	if d.closing.Load() || d.closed {
		return false, false, ErrClosed
	}
	if d.bgState == bgReadOnly {
		// Degraded mode: fail fast instead of stalling on backpressure
		// that background work will never relieve. Transient background
		// failures (bgRetrying) do NOT fail writes — the worker is
		// retrying, and if it cannot keep up the ordinary imm-queue/L0
		// backpressure applies.
		return false, false, d.readOnlyErrLocked()
	}
	// With auto-compaction off nothing shrinks L0, so its triggers would
	// deadlock writers; the flush worker still drains the immutable queue,
	// so that bound continues to apply.
	l0 := len(d.version.Levels[0])
	auto := !d.opts.disableAutoCompaction
	stop = len(d.imm) >= d.opts.maxImmutableMemTables || (auto && l0 >= l0StopTrigger)
	slowdown = auto && l0 >= l0CompactTrigger
	return stop, slowdown, nil
}

// waitForWriteRoom applies write backpressure in background mode. It blocks
// while the immutable-memtable queue is full or L0 has hit its stop trigger,
// and applies the paper's slowdown delay while L0 sits between the compact
// and stop triggers. Caller holds commitMu.
func (d *DB) waitForWriteRoom() error {
	// Nearly every group finds room, and finding that out needs only the
	// shared lock; the exclusive lock (bgCond's) is for groups that stall.
	d.mu.RLock()
	stop, slowdown, err := d.writePressureLocked()
	d.mu.RUnlock()
	if err != nil || (!stop && !slowdown) {
		return err
	}

	start := time.Now()
	d.mu.Lock()
	stalled := false
	for {
		stop, slowdown, err = d.writePressureLocked()
		if err != nil {
			d.mu.Unlock()
			return err
		}
		if !stop {
			break
		}
		if !stalled {
			d.metrics.stallStops.Inc()
			stalled = true
		}
		// Make sure the worker knows there is pressure to relieve: a tall
		// L0 inherited from a reopen has no seal notification behind it.
		d.notifyWorker()
		d.bgCond.Wait()
	}
	if slowdown {
		d.metrics.stallSlowdowns.Inc()
	}
	d.mu.Unlock()
	if slowdown {
		time.Sleep(l0SlowdownDelay)
	}
	if stalled || slowdown {
		d.metrics.stallNanos.ObserveSince(start)
	}
	return nil
}

// preparedLog is the log the next seal switches to. In background mode
// it is created, and the EditSeal that adds it to the manifest committed,
// ahead of the seal that needs it: at open and after every seal.
type preparedLog struct {
	num uint64
	// f and err are final once done is closed: the created file, or why
	// it could not be created and committed.
	f    vfs.File
	err  error
	done chan struct{}
}

// prepareLog starts preparing the next log. Its number is taken here, so
// file numbers follow the seal order; the create and the commit, with the
// directory sync the commit makes, run on a goroutine of their own. Caller
// holds commitMu, or is Open with no other goroutine running.
func (d *DB) prepareLog() {
	p := &preparedLog{num: d.nextFileNum.Add(1) - 1, done: make(chan struct{})}
	d.nextLog.Store(p)
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		defer close(p.done)
		f, err := d.fs.Create(walPath(d.opts.Dir, p.num))
		if err != nil {
			p.err = err
			return
		}
		// A failed commit keeps the file: the edit may have reached the
		// manifest. Either way the next Open retires or removes it. The
		// edit claims only what preparing knows: its own file number, and
		// no sequence numbers (the manifest folds both by maximum).
		if _, err := d.store.Commit(&manifest.Edit{
			Kind:        manifest.EditSeal,
			AddedWALs:   []uint64{p.num},
			NextFileNum: p.num + 1,
		}); err != nil {
			f.Close()
			p.err = err
			return
		}
		p.f = f
	}()
}

// waitPrepared waits until the log being prepared, if any, is ready or has
// failed. A flush waits for it before committing its own edit, so the
// manifest lists each log's EditSeal before the flush that follows the
// seal before it.
func (d *DB) waitPrepared() {
	if p := d.nextLog.Load(); p != nil {
		<-p.done
	}
}

// sealMemTable moves the active memtable onto the immutable queue and
// switches to a fresh memtable and WAL. In background mode the WAL was
// prepared ahead (prepareLog), so the seal does no file-system work: it
// swaps the memtable and the log under mu and starts preparing the next
// one. Without a prepared log — InlineCompaction, whose file numbers stay
// those of the single-threaded engine; a preparation that failed, counted
// in SealFallbacks; or the empty seal below — it creates the WAL and
// commits the edit that adds it itself, before any state changes and
// outside mu, so a failure leaves the DB fully intact and no reader waits
// on the device. After a failed WAL write it switches logs even with an
// empty memtable: the old log, holding nothing acknowledged, is retired
// in that edit. Caller holds commitMu and has drained the publish chain:
// no group still owes a record to the old log or an apply to the old
// memtable.
func (d *DB) sealMemTable() error {
	d.mu.RLock()
	empty := d.mem.Empty()
	d.mu.RUnlock()
	if empty && !d.walBroken {
		return nil
	}
	oldNum := d.walNum
	// An empty seal retires the old log in the edit that adds the new
	// one, so it leaves the prepared log for the next seal.
	p := d.nextLog.Load()
	usePrepared := p != nil && !empty
	var num uint64
	var f vfs.File
	if usePrepared {
		<-p.done
		if p.err == nil {
			num, f = p.num, p.f
		} else {
			d.logf("lsm: prepared wal %06d failed, sealing without it: %v", p.num, p.err)
			d.metrics.sealFallbacks.Inc()
		}
	}
	if f == nil {
		num = d.nextFileNum.Add(1) - 1
		var err error
		if f, err = d.fs.Create(walPath(d.opts.Dir, num)); err != nil {
			return err
		}
		edit := &manifest.Edit{
			Kind:        manifest.EditSeal,
			AddedWALs:   []uint64{num},
			NextFileNum: d.nextFileNum.Load(),
			LastSeq:     d.seqAlloc.Load(),
		}
		if empty {
			edit.RetiredWALs = []uint64{oldNum}
		}
		if _, err := d.store.Commit(edit); err != nil {
			f.Close()
			return err
		}
	}
	d.mu.Lock()
	if !empty {
		d.imm = append(d.imm, &immTable{mem: d.mem, walNum: oldNum})
		d.mem = memtable.New(d.nextMemSeedLocked())
	}
	oldLog := d.log
	d.walNum = num
	d.log = wal.NewWriter(f)
	d.mu.Unlock()
	d.walBroken = false
	if usePrepared {
		d.prepareLog()
	}
	// Every record in the old log was synced by its own group; closing it
	// only releases the handle.
	err := oldLog.Close()
	if empty {
		d.removeWAL(oldNum, "retired")
	}
	return err
}

// notifyWorker nudges the flush worker; the buffered channel coalesces
// bursts of notifications into one wake-up.
func (d *DB) notifyWorker() {
	select {
	case d.bgWork <- struct{}{}:
	default:
	}
}
