package lsm

import (
	"time"

	"adcache/internal/keys"
	"adcache/internal/memtable"
	"adcache/internal/metrics"
	"adcache/internal/wal"
)

// This file implements the write-group commit pipeline (RocksDB-style group
// commit) and the write-path backpressure that replaces inline compaction.
//
// Writers enqueue themselves on d.pending, then contend for commitMu. The
// winner becomes the group leader: it drains the whole queue, performs one
// WAL append run and one memtable apply for every queued operation, and
// wakes the followers with the shared result. A writer that finds its commit
// already completed by an earlier leader returns without doing any work —
// that coalescing is what turns N contending writers into one fsync.

// commitWaiter carries one writer's operations through a group commit.
type commitWaiter struct {
	ops  []batchOp
	err  error
	done chan struct{}
}

// commit batches ops into the next write group and blocks until the group
// that includes them commits (or fails as a unit).
func (d *DB) commit(ops []batchOp) error {
	if len(ops) == 0 {
		return nil
	}
	if d.closing.Load() {
		return ErrClosed
	}
	start := time.Now()
	defer d.metrics.commitNanos.ObserveSince(start)

	w := &commitWaiter{ops: ops, done: make(chan struct{})}
	d.pendMu.Lock()
	d.pending = append(d.pending, w)
	d.pendMu.Unlock()

	d.commitMu.Lock()
	// Everything up to acquiring commitMu is time spent waiting on other
	// groups (the group-commit queueing delay).
	d.metrics.commitWait.ObserveSince(start)
	select {
	case <-w.done:
		// An earlier leader already committed us as a follower.
		d.commitMu.Unlock()
		return w.err
	default:
	}
	// We are the leader: take everything queued so far as one group.
	d.pendMu.Lock()
	group := d.pending
	d.pending = nil
	d.pendMu.Unlock()

	err := d.commitGroup(group)
	for _, g := range group {
		g.err = err
		close(g.done)
	}
	d.commitMu.Unlock()
	return err
}

// commitGroup writes one group: backpressure, one WAL append run, one
// memtable apply, then a seal if the memtable filled up. The whole group
// shares a single outcome. Caller holds commitMu.
func (d *DB) commitGroup(group []*commitWaiter) error {
	if d.closing.Load() {
		return ErrClosed
	}
	if !d.opts.InlineCompaction {
		if err := d.waitForWriteRoom(); err != nil {
			return err
		}
	}

	total := 0
	for _, g := range group {
		total += len(g.ops)
	}
	d.metrics.writeGroupOps.Observe(int64(total))
	// Sequence numbers advance even if the WAL append fails part-way: some
	// records may have reached the log, and a later successful commit must
	// not reuse their sequence numbers.
	startSeq := d.seqAlloc + 1
	d.seqAlloc += uint64(total)

	// One append run for the whole group. All records land in the WAL
	// before any becomes visible, so a crash mid-group replays a prefix of
	// intact records and visibility below is all-or-nothing.
	seq := startSeq
	for _, g := range group {
		for _, op := range g.ops {
			rec := wal.Record{Seq: seq, Kind: op.kind, Key: op.key, Value: op.value}
			if err := d.log.Append(rec); err != nil {
				return err
			}
			seq++
		}
	}
	// One sync per group — the fsync the whole group-commit design exists
	// to amortise. Once it returns, every acknowledged write in the group
	// survives a crash (the durability contract the crash-point sweep
	// verifies).
	if err := d.log.Sync(); err != nil {
		return err
	}

	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrClosed
	}
	// The group's counters advance once, after the apply loop: OnWrite may
	// close a tuning window, and a window prices whole groups.
	var stall *metrics.Counter
	if d.opts.InlineCompaction {
		// Count-only stall accounting, mirroring the pre-concurrency
		// engine: the stall manifests as inline compaction latency below.
		if n := len(d.version.Levels[0]); n >= l0StopTrigger {
			stall = d.metrics.stallStops
		} else if n >= l0CompactTrigger {
			stall = d.metrics.stallSlowdowns
		}
	}
	var userBytes int64
	seq = startSeq
	for _, g := range group {
		for _, op := range g.ops {
			d.mem.Set(keys.Make(op.key, seq, op.kind), op.value)
			userBytes += int64(len(op.key) + len(op.value))
			// Write-through cache coherence happens inside the exclusive
			// section, as in the single-threaded engine: no reader can
			// observe the cache behind the tree.
			d.strategy.OnWrite(op.key, op.value, op.kind == keys.KindDelete)
			seq++
		}
	}
	d.lastSeq = startSeq + uint64(total) - 1
	if stall != nil {
		stall.Inc()
	}
	d.metrics.userBytes.Add(userBytes)
	d.metrics.writeGroups.Inc()

	var sealErr error
	// The flush threshold is dynamic when a unified-memory arbiter has set
	// a budget (SetMemTableBudget): active target = budget − immutable
	// bytes, floored. Checked only here — a budget shrink never truncates
	// the in-flight memtable, it just seals it at the next write group.
	full := d.mem.ApproximateSize() >= d.activeMemTargetLocked()
	if full {
		sealErr = d.sealMemTableLocked()
	}
	d.storeMemGaugesLocked()
	d.mu.Unlock()
	if sealErr != nil {
		return sealErr
	}
	if !full {
		return nil
	}
	if d.opts.InlineCompaction {
		return d.drainAndCompact(!d.opts.DisableAutoCompaction)
	}
	d.notifyWorker()
	return nil
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
	auto := !d.opts.DisableAutoCompaction
	stop = len(d.imm) >= d.opts.MaxImmutableMemTables || (auto && l0 >= l0StopTrigger)
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

// sealMemTableLocked moves the full memtable onto the immutable queue and
// starts a fresh memtable + WAL. The new WAL file is created before any
// state changes, so a creation failure leaves the DB fully intact. Caller
// holds commitMu and d.mu.
func (d *DB) sealMemTableLocked() error {
	if d.mem.Empty() {
		return nil
	}
	num := d.nextFileNum.Add(1) - 1
	f, err := d.fs.Create(walPath(d.opts.Dir, num))
	if err != nil {
		return err
	}
	d.imm = append(d.imm, &immTable{mem: d.mem, walNum: d.walNum, bytes: d.mem.ApproximateSize()})
	oldLog := d.log
	d.walNum = num
	d.log = wal.NewWriter(f)
	d.mem = memtable.New(d.nextMemSeedLocked())
	if err := oldLog.Close(); err != nil {
		return err
	}
	return d.saveManifestLocked()
}

// notifyWorker nudges the flush worker; the buffered channel coalesces
// bursts of notifications into one wake-up.
func (d *DB) notifyWorker() {
	select {
	case d.bgWork <- struct{}{}:
	default:
	}
}
