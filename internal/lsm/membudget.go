package lsm

// Unified memory arbitration, engine side. A cache strategy that also
// arbitrates write-side memory (core.Config.MemtableArbitration) calls
// SetMemTableBudget with its decoded allocation; the commit path sizes the
// active memtable's flush threshold from that budget minus the bytes
// already pinned by the immutable queue. Shrinks are applied lazily: an
// in-flight memtable is never truncated — it simply seals at the next
// write group that observes the smaller target, so a shrink takes effect
// at the next rotation. Backpressure is untouched: the immutable-queue cap
// and L0 triggers in waitForWriteRoom keep operating on counts and files,
// so a moving budget can delay or hasten seals but never bypass stalls.

// WriteSideInfo is the engine's write-side state as cache strategies see it
// from inside engine callbacks (where taking d.mu would deadlock), to build
// RL state features and write-efficiency rewards: the memtable gauges and
// the registry's cumulative counters, both read without a lock.
type WriteSideInfo struct {
	// MemBytes is the active memtable's approximate physical size.
	MemBytes int64
	// MemTarget is the flush threshold currently in force for the active
	// memtable (dynamic budget minus immutable bytes when a budget is set,
	// floored at MinMemTableSize; otherwise the static MemTableSize).
	MemTarget int64
	// ImmCount / ImmBytes describe the sealed-memtable queue.
	ImmCount int
	ImmBytes int64
	// MaxImm is Options.MaxImmutableMemTables (the backpressure cap).
	MaxImm int
	// Cumulative counters, for windowed deltas.
	Flushes        int64
	StallSlowdowns int64
	StallStops     int64
	FlushedBytes   int64
	CompactedBytes int64
	// CompactionOutBytes is cumulative compaction output; FlushedBytes +
	// CompactionOutBytes per UserBytes is the engine's write amplification.
	CompactionOutBytes int64
	UserBytes          int64
}

// WriteSideInfo reads the write-side gauges and counter cells without
// locking. The counters advance under d.mu at the end of a commit's
// exclusive section and at flush and compaction installs, so a strategy
// callback running inside a write group sees the totals as of the previous
// group.
func (d *DB) WriteSideInfo() WriteSideInfo {
	c := &d.metrics
	return WriteSideInfo{
		MemBytes:           d.memBytes.Load(),
		MemTarget:          d.memTarget.Load(),
		ImmCount:           int(d.immCount.Load()),
		ImmBytes:           d.immBytes.Load(),
		MaxImm:             d.opts.MaxImmutableMemTables,
		Flushes:            c.flushes.Value(),
		StallSlowdowns:     c.stallSlowdowns.Value(),
		StallStops:         c.stallStops.Value(),
		FlushedBytes:       c.flushedBytes.Value(),
		CompactedBytes:     c.compactedBytes.Value(),
		CompactionOutBytes: c.compactionOut.Value(),
		UserBytes:          c.userBytes.Value(),
	}
}

// SetMemTableBudget sets the byte budget shared by the active and
// immutable memtables; <= 0 restores the static Options.MemTableSize
// threshold. Safe to call from any goroutine, including cache-strategy
// callbacks running under the engine's locks: the budget is an atomic the
// commit path reads at each write group. A shrink never truncates the
// in-flight memtable — it takes effect at the next rotation.
func (d *DB) SetMemTableBudget(budget int64) {
	if budget < 0 {
		budget = 0
	}
	d.memBudget.Store(budget)
}

// MemTableBudget returns the current dynamic budget (0 = static sizing).
func (d *DB) MemTableBudget() int64 { return d.memBudget.Load() }

// activeMemTargetLocked computes the active memtable's flush threshold:
// the dynamic budget minus bytes pinned by sealed-but-unflushed memtables,
// floored at MinMemTableSize so a tiny or transiently oversubscribed
// budget degrades to small flushes rather than a zero-size livelock.
// Caller holds d.mu.
func (d *DB) activeMemTargetLocked() int64 {
	budget := d.memBudget.Load()
	if budget <= 0 {
		return d.opts.MemTableSize
	}
	target := budget - d.immBytesLocked()
	if target < d.opts.MinMemTableSize {
		target = d.opts.MinMemTableSize
	}
	return target
}

// immBytesLocked sums the sealed queue's cached sizes. Caller holds d.mu.
func (d *DB) immBytesLocked() int64 {
	var total int64
	for _, im := range d.imm {
		total += im.bytes
	}
	return total
}

// storeMemGaugesLocked stores the write-side gauges. Caller holds d.mu
// exclusively and has just changed the active memtable or the immutable
// queue: a commit's apply (and seal), a flush install.
func (d *DB) storeMemGaugesLocked() {
	d.memBytes.Store(d.mem.ApproximateSize())
	d.memTarget.Store(d.activeMemTargetLocked())
	d.immCount.Store(int64(len(d.imm)))
	d.immBytes.Store(d.immBytesLocked())
}
