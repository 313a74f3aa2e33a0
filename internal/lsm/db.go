// Package lsm implements the leveled LSM-tree storage engine the AdCache
// reproduction runs on: a scaled-down analogue of the RocksDB configuration
// used by the paper (1-leveling with size ratio 10, 4 KiB blocks, Bloom
// filters at 10 bits/key, L0 slowdown/stop triggers).
//
// The engine exposes the paper's Figure 5 integration points through the
// CacheStrategy interface: result caches are consulted before the MemTable,
// block reads flow through a pluggable block cache, and completed queries
// and writes are reported back to the strategy for admission and coherence.
package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"adcache/internal/bloom"
	"adcache/internal/compaction"
	"adcache/internal/keys"
	"adcache/internal/manifest"
	"adcache/internal/memtable"
	"adcache/internal/metrics"
	"adcache/internal/sstable"
	"adcache/internal/stats"
	"adcache/internal/vfs"
	"adcache/internal/wal"
)

// ErrClosed is returned by operations on a closed DB.
var ErrClosed = errors.New("lsm: database closed")

// immTable is a sealed (immutable) memtable queued for background flush,
// paired with the WAL that made it durable. The WAL file is deleted only
// after the manifest edit that adds the memtable's SSTable is durable, so a
// crash at any point between seal and flush recovers every write.
type immTable struct {
	mem    *memtable.MemTable
	walNum uint64
	// bytes caches ApproximateSize at seal time: the memtable is frozen, so
	// the commit path can charge the immutable queue against the memtable
	// budget without taking per-memtable locks.
	bytes int64
}

// DB is an LSM-tree key-value store. It is safe for concurrent use by
// multiple goroutines. Concurrent writers coalesce into write groups — one
// WAL write and one memtable apply per group (RocksDB-style group commit) —
// and the groups are pipelined: one group's WAL sync overlaps the next
// group's, and groups publish in sequence order (see commit.go). Full
// memtables are sealed onto an immutable queue and flushed,
// then compacted, by a background worker; the paper's L0 slowdown/stop
// triggers act as real write backpressure (delaying or blocking writers)
// rather than as inline compaction latency. Options.InlineCompaction
// restores the synchronous pre-concurrency behaviour for deterministic
// experiments.
//
// Lock ordering: commitMu → compactMu → manifest → mu → verMu, where
// manifest is the manifest.Store's own mutex, held through each edit's
// append and sync. A goroutine may only acquire a lock that is to the right
// of every lock it already holds.
type DB struct {
	opts     Options
	fs       *vfs.CountingFS
	strategy CacheStrategy
	store    *manifest.Store
	tc       *tableCache

	// ioLimit paces background flush/compaction writes
	// (Options.BgIOBytesPerSec); nil when unlimited.
	ioLimit *ioLimiter

	// metrics are the engine's registry cells — histograms and every
	// cumulative counter (see metrics.go). snapshots counts Metrics() calls;
	// tests pin the one-snapshot-per-scrape rule with it.
	metrics   dbMetrics
	snapshots atomic.Int64

	// commitMu serialises the append stage of write groups: its holder is
	// the group leader and the only goroutine appending to the WAL writer,
	// advancing seqAlloc or extending the publish chain at tail.
	commitMu sync.Mutex
	// seqAlloc is the last allocated sequence; it advances even when a group
	// fails. Written under commitMu; a failed sync reads it without.
	seqAlloc atomic.Uint64
	// tail is the latest group to join the publish chain (see commit.go).
	tail *writeGroup
	// syncSlots holds one token per group in its WAL sync; its capacity is
	// maxSyncsInFlight.
	syncSlots chan struct{}

	// pendMu guards the queue of writers waiting to be committed; the next
	// leader drains the whole queue into a single group.
	pendMu  sync.Mutex
	pending []*commitWaiter

	// compactMu serialises version-changing background work — memtable
	// flushes and compactions — between the background worker and the
	// foreground Flush/Compact barriers. roundRobin (the compaction
	// cursor, mutated by the picker) is guarded by it.
	compactMu  sync.Mutex
	roundRobin map[int][]byte

	// mu guards the fields below: which tables and version are current, not
	// their contents. Reads copy what they need under it (pinSnapshot) and
	// let go; it is never held across a table read or an iterator step.
	mu      sync.RWMutex
	mem     *memtable.MemTable
	imm     []*immTable       // sealed memtables awaiting flush, oldest first
	version *manifest.Version // latest version; mutations under mu
	lastSeq uint64            // published only after the group's memtable apply
	closed  bool

	// Background error handler state (see errhandler.go). Guarded by mu.
	// bgState is healthy, retrying (transient failure, backoff in
	// progress) or read-only (corruption; writes fail fast until Resume).
	bgState   bgState
	bgKind    BgErrorKind
	bgCause   error
	bgAttempt int // consecutive failures, drives the backoff

	// bgCond (on mu) wakes stalled writers when the background worker
	// retires an immutable memtable or shrinks L0.
	bgCond *sync.Cond

	// closing flips before Close takes any lock, so stalled writers and
	// new operations bail out promptly instead of racing the teardown.
	closing atomic.Bool

	// Background worker lifecycle (nil / unused with InlineCompaction).
	bgWork chan struct{}
	quit   chan struct{}
	wg     sync.WaitGroup

	// Version pinning (see version_ref.go).
	verMu   sync.Mutex
	current *versionHandle
	live    map[*versionHandle]struct{}
	zombies map[uint64]bool

	nextFileNum atomic.Uint64
	walNum      uint64      // active log; written under commitMu+mu, read under either
	log         *wal.Writer // appended to under commitMu; synced by groups in flight
	// walBroken records a failed write to log: the next group seals to a
	// fresh log before appending. Guarded by commitMu.
	walBroken bool

	// shapeInfo is a lock-free snapshot of tree-shape figures, refreshed on
	// every version install. Cache strategies read it from inside engine
	// callbacks (where taking d.mu would deadlock).
	shapeInfo atomic.Value // ShapeInfo

	// memBudget is the dynamic byte budget for active + immutable memtables,
	// set by a unified-memory arbiter via SetMemTableBudget. 0 means no
	// arbiter: the static Options.MemTableSize threshold applies. Atomic so
	// strategies can move it from inside engine callbacks (which may run
	// under d.mu).
	memBudget atomic.Int64

	// Write-side gauges, stored (under d.mu) wherever the memtable or the
	// immutable queue changes and read lock-free by WriteSideInfo: cache
	// strategies observe the write side from inside engine callbacks.
	memBytes, memTarget, immCount, immBytes atomic.Int64

	// readPool recycles per-operation read scratch (seek-key buffers, block
	// and merge iterators, the scan iterator stack) so warm Get/Scan calls
	// allocate nothing beyond their results.
	readPool sync.Pool

	memSeed int64 // guarded by mu
}

// Open opens (creating if necessary) the database described by opts.
func Open(opts Options) (*DB, error) {
	opts = opts.withDefaults()
	if opts.CompactionParallelism <= 0 {
		// Deterministic experiments need a machine-independent file layout.
		opts.CompactionParallelism = 1
		if !opts.InlineCompaction {
			opts.CompactionParallelism = min(runtime.GOMAXPROCS(0), 4)
		}
	}
	fs := vfs.NewCounting(opts.FS)
	if err := fs.MkdirAll(opts.Dir); err != nil {
		return nil, err
	}
	strategy := opts.Strategy
	if strategy == nil {
		strategy = NoCache{}
	}
	reg := opts.MetricsRegistry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	store, st, err := manifest.Open(fs, opts.Dir, numLevels)
	if err != nil {
		return nil, err
	}
	db := &DB{
		opts:       opts,
		fs:         fs,
		strategy:   strategy,
		store:      store,
		roundRobin: make(map[int][]byte),
		memSeed:    opts.Seed,
	}
	db.registerMetrics(reg)
	db.ioLimit = newIOLimiter(opts.BgIOBytesPerSec, db.metrics.bgIOStallNanos)
	db.readPool.New = func() any { return new(readState) }
	db.bgCond = sync.NewCond(&db.mu)
	db.tc = newTableCache(fs, opts.Dir, strategy.BlockCache())
	db.mem = memtable.New(db.nextMemSeedLocked())
	db.live = make(map[*versionHandle]struct{})
	db.zombies = make(map[uint64]bool)

	db.installVersion(st.Version, nil)
	db.lastSeq = st.LastSeq
	db.nextFileNum.Store(st.NextFileNum)
	if err := db.replayWALs(st.WALNums); err != nil {
		return nil, err
	}
	if err := db.startWAL(st.WALNums); err != nil {
		return nil, err
	}
	db.removeOrphans()
	db.seqAlloc.Store(db.lastSeq)
	db.syncSlots = make(chan struct{}, maxSyncsInFlight)
	db.storeMemGaugesLocked() // single-threaded: no other goroutine yet
	if !opts.InlineCompaction {
		db.bgWork = make(chan struct{}, 1)
		db.quit = make(chan struct{})
		db.wg.Add(1)
		go db.flushWorker()
		// Recovery may have rebuilt a tree that already violates its shape
		// invariants (e.g. a tall L0 from replayed flushes); start working
		// on it now rather than after the first seal.
		db.notifyWorker()
	}
	return db, nil
}

// nextMemSeedLocked returns the next deterministic skiplist seed.
// Caller holds d.mu (or is single-threaded during Open).
func (d *DB) nextMemSeedLocked() int64 {
	d.memSeed++
	return d.memSeed
}

// replayWALs rebuilds the memtable from every live log, oldest first: the
// logs of sealed-but-unflushed memtables, then the active log at the crash.
func (d *DB) replayWALs(nums []uint64) error {
	for _, num := range nums {
		if num == 0 {
			continue
		}
		path := walPath(d.opts.Dir, num)
		if !d.fs.Exists(path) {
			continue
		}
		f, err := d.fs.Open(path)
		if err != nil {
			return err
		}
		maxSeq, err := wal.Replay(f, func(rec wal.Record) error {
			d.mem.Set(keys.Make(rec.Key, rec.Seq, rec.Kind), rec.Value)
			return nil
		})
		if err != nil {
			return err
		}
		if maxSeq > d.lastSeq {
			d.lastSeq = maxSeq
		}
	}
	return nil
}

// startWAL persists the memtable rebuilt by replayWALs as an L0 table,
// opens a fresh active log, and commits both in one manifest edit that
// retires the replayed logs. The table must be in the edit: without it the
// recovered entries would exist only in memory while the manifest stops
// listing the logs that held them, so a second crash before the next flush
// would lose every acknowledged write from before the first. The edit is
// the first since the manifest was loaded, so the store writes it as the
// snapshot of a fresh log. Single-threaded (no other goroutine exists yet).
func (d *DB) startWAL(replayed []uint64) error {
	edit := &manifest.Edit{Kind: manifest.EditFlush, RetiredWALs: replayed}
	if !d.mem.Empty() {
		start := time.Now()
		meta, err := d.writeMemTable(d.mem)
		if err != nil {
			return err
		}
		d.metrics.flushNanos.ObserveSince(start)
		d.metrics.flushes.Inc()
		d.metrics.flushedBytes.Add(int64(meta.Size))
		edit.Added = []manifest.LevelFile{{Level: 0, Meta: meta}}
		d.mem = memtable.New(d.nextMemSeedLocked())
	}
	num := d.nextFileNum.Add(1) - 1
	f, err := d.fs.Create(walPath(d.opts.Dir, num))
	if err != nil {
		return err
	}
	edit.AddedWALs = []uint64{num}
	edit.NextFileNum = d.nextFileNum.Load()
	edit.LastSeq = d.lastSeq
	v, err := d.store.Commit(edit)
	if err != nil {
		f.Close()
		return err
	}
	d.installVersion(v, nil)
	d.walNum = num
	d.log = wal.NewWriter(f)
	// Same contract as flushImm: the replayed records are durably in the
	// tree, so a failed deletion of a retired log is cosmetic.
	for _, old := range replayed {
		d.removeWAL(old, "replayed")
	}
	return nil
}

// removeOrphans deletes files in the database directory that the freshly
// committed manifest does not reference: SSTs from flushes or compactions
// whose edit never became durable, tables and WALs whose removal a crash
// undid, and a leftover MANIFEST.tmp from an interrupted rollover. Without
// this, every crash leaks its in-flight files forever. Best-effort; runs
// single-threaded at the end of Open, after the manifest commit, so the
// live set is exact.
func (d *DB) removeOrphans() {
	names, err := d.fs.List(d.opts.Dir)
	if err != nil {
		return
	}
	liveSST := make(map[uint64]bool)
	for _, level := range d.version.Levels {
		for _, f := range level {
			liveSST[f.FileNum] = true
		}
	}
	for _, name := range names {
		full := d.opts.Dir + "/" + name
		if name == "MANIFEST.tmp" {
			d.logf("lsm: removing leftover manifest temp %s", full)
			d.fs.Remove(full)
			continue
		}
		typ, num := parseFileName(name)
		switch typ {
		case "sst":
			if !liveSST[num] {
				d.logf("lsm: removing orphan table %s", full)
				d.fs.Remove(full)
			}
		case "log":
			// The only live log at this point in Open is the fresh active
			// one; every other log was either replayed and flushed above or
			// belongs to no manifest.
			if num != d.walNum {
				d.logf("lsm: removing orphan wal %s", full)
				d.fs.Remove(full)
			}
		}
	}
}

// Put stores key=value.
func (d *DB) Put(key, value []byte) error {
	return d.commit([]batchOp{{
		kind:  keys.KindSet,
		key:   append([]byte(nil), key...),
		value: append([]byte(nil), value...),
	}})
}

// Delete removes key.
func (d *DB) Delete(key []byte) error {
	return d.commit([]batchOp{{
		kind: keys.KindDelete,
		key:  append([]byte(nil), key...),
	}})
}

// Get returns the value for key, following the paper's query-handling path:
// range/result cache → MemTable → block cache → disk.
func (d *DB) Get(key []byte) ([]byte, bool, error) {
	start := time.Now()
	defer d.metrics.getNanos.ObserveSince(start)

	// 1. Result cache.
	if v, found, ok := d.strategy.GetCached(key); ok {
		return v, found, nil
	}

	// The read runs on a pinned snapshot with no engine lock held: a Get
	// asleep in the device delays no writer.
	snap, err := d.pinSnapshot()
	if err != nil {
		return nil, false, err
	}
	defer d.releaseVersion(snap.h)

	// The pooled readState supplies every piece of per-operation scratch —
	// the memtable search key, the SSTable seek key and the block iterator —
	// so a warm lookup allocates only the returned value copy.
	rs := d.getReadState()
	defer d.putReadState(rs)

	// 2. MemTable, then sealed memtables newest-first. One search key is
	// built once and reused across the whole memtable queue.
	rs.seekBuf = keys.AppendSearch(rs.seekBuf[:0], key, snap.seq)
	search := keys.InternalKey(rs.seekBuf)
	if v, deleted, ok := snap.mem.GetSeek(search, key); ok {
		if deleted {
			return nil, false, nil
		}
		// Served from memory: no disk involved, nothing to admit (the
		// cache-fill path only captures disk-served results, Figure 5).
		return v, true, nil
	}
	for i := len(snap.imm) - 1; i >= 0; i-- {
		if v, deleted, ok := snap.imm[i].mem.GetSeek(search, key); ok {
			if deleted {
				return nil, false, nil
			}
			return v, true, nil
		}
	}

	// 3. SSTables through the block cache.
	value, found, err := d.getFromTables(snap.h.v, key, snap.seq, &rs.stats)
	if err != nil {
		return nil, false, err
	}
	d.metrics.queryBlockReads.Add(rs.stats.BlockMisses)
	d.metrics.queryBlockHits.Add(rs.stats.BlockHits)

	// 4. Cache fill. OnWrite runs under the exclusive lock, so holding the
	// read lock around the callback keeps admission and write-through
	// mutually exclusive; a value some write has overtaken since the
	// snapshot is reported as nil, which no strategy admits.
	admit := value
	d.mu.RLock()
	if found && !d.currentLocked(&snap, key, key) {
		admit = nil
		d.metrics.staleSkippedPoints.Inc()
	}
	d.strategy.OnPointResult(key, admit, int(rs.stats.BlockMisses))
	d.mu.RUnlock()
	return value, found, nil
}

func (d *DB) getFromTables(v *manifest.Version, key []byte, seq uint64, stats *sstable.ReadStats) ([]byte, bool, error) {
	// L0: newest file first.
	for _, f := range v.Levels[0] {
		if !f.ContainsUser(key) {
			continue
		}
		r, err := d.tc.get(f.FileNum)
		if err != nil {
			return nil, false, err
		}
		val, deleted, ok, err := r.Get(key, seq, stats)
		if err != nil {
			return nil, false, err
		}
		if ok {
			if deleted {
				return nil, false, nil
			}
			return val, true, nil
		}
	}
	// L1+: at most one file per level can contain the key.
	for level := 1; level < len(v.Levels); level++ {
		f := findFile(v.Levels[level], key)
		if f == nil {
			continue
		}
		r, err := d.tc.get(f.FileNum)
		if err != nil {
			return nil, false, err
		}
		val, deleted, ok, err := r.Get(key, seq, stats)
		if err != nil {
			return nil, false, err
		}
		if ok {
			if deleted {
				return nil, false, nil
			}
			return val, true, nil
		}
	}
	return nil, false, nil
}

// findFile binary-searches a sorted non-overlapping level for the file
// containing key.
func findFile(files []*manifest.FileMeta, key []byte) *manifest.FileMeta {
	lo, hi := 0, len(files)
	for lo < hi {
		mid := (lo + hi) / 2
		if string(files[mid].Largest.UserKey()) < string(key) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(files) && files[lo].ContainsUser(key) {
		return files[lo]
	}
	return nil
}

// Scan returns up to n live key-value pairs with key >= start, in key order.
func (d *DB) Scan(start []byte, n int) ([]KV, error) {
	return d.scan(start, nil, n)
}

// ScanRange returns up to limit live pairs with start <= key < end.
// A nil end means no upper bound; limit <= 0 means no count bound (the scan
// still ends at end). The result flows through the same cache paths as Scan.
func (d *DB) ScanRange(start, end []byte, limit int) ([]KV, error) {
	if limit <= 0 {
		limit = int(^uint(0) >> 1) // unbounded count; end bounds the scan
	}
	return d.scan(start, end, limit)
}

func (d *DB) scan(start, end []byte, n int) ([]KV, error) {
	if n <= 0 {
		return nil, nil
	}
	begin := time.Now()
	defer d.metrics.scanNanos.ObserveSince(begin)
	// 1. Result cache. With an end bound the cached answer is complete only
	// if it provably reaches end: contiguous entries cover [start, last],
	// so an entry at or past end proves every live key in [start, end) is
	// included.
	if kvs, ok := d.strategy.ScanCached(start, n); ok {
		if end == nil {
			return kvs, nil
		}
		for i, kv := range kvs {
			if bytes.Compare(kv.Key, end) >= 0 {
				return kvs[:i], nil
			}
		}
		// All cached entries fall below end: completeness unknown, fall
		// through to the tree.
	}

	snap, err := d.pinSnapshot()
	if err != nil {
		return nil, err
	}
	defer d.releaseVersion(snap.h)

	rs := d.getReadState()
	defer d.putReadState(rs)
	stats := &rs.stats
	if quota, limited := d.strategy.ScanBlockFillQuota(n); limited {
		stats.LimitScanFill = true
		stats.ScanFillBudget = quota
	}
	stats.ScanRemaining = int64(n)
	vi := d.buildIter(rs, &snap, start, end)
	// Results are copied into one contiguous arena per scan instead of two
	// fresh allocations per returned pair; the arena is handed out with the
	// results (never pooled), so retaining them is safe. It is sized from
	// the first pair, for up to presize pairs and 1 MiB: regrowing it would
	// leave the earlier results pinning every outgrown copy.
	const presize = 64
	var arena []byte
	out := make([]KV, 0, min(n, presize))
	// The limit is tested before stepping, not after: a Next past the last
	// wanted entry could load a block, or open a run, for nothing.
	for ok := vi.SeekGE(start); ok; ok = vi.Next() {
		if vi.Deleted() {
			continue
		}
		if end != nil && bytes.Compare(vi.UserKey(), end) >= 0 {
			break
		}
		if arena == nil {
			arena = make([]byte, 0, min(min(n, presize)*(len(vi.UserKey())+len(vi.Value())), 1<<20))
		}
		kOff := len(arena)
		arena = append(arena, vi.UserKey()...)
		vOff := len(arena)
		arena = append(arena, vi.Value()...)
		k, v := arena[kOff:vOff:vOff], arena[vOff:len(arena):len(arena)]
		out = append(out, KV{Key: k, Value: v})
		if len(out) == n {
			break
		}
		stats.ScanRemaining = int64(n - len(out))
	}
	if err := vi.Err(); err != nil {
		return nil, err
	}
	d.metrics.queryBlockReads.Add(stats.BlockMisses)
	d.metrics.queryBlockHits.Add(stats.BlockHits)
	// Cache fill, as in Get — but validated over the whole span the result
	// describes, not per key: a range cache takes the entries as every live
	// key of [start, last entry], so a key inserted or deleted in between
	// falsifies the result as surely as an overwritten value. A scan that
	// came back short describes everything up to its bound.
	hi := end
	if len(out) == n {
		hi = out[n-1].Key
	}
	admit := out
	d.mu.RLock()
	if len(admit) > 0 && !d.currentLocked(&snap, start, hi) {
		admit = nil
		d.metrics.staleSkippedScans.Inc()
	}
	d.strategy.OnScanResult(start, admit, int(stats.BlockMisses))
	d.mu.RUnlock()
	return out, nil
}

// ShapeInfo is the lock-free subset of Metrics used by cache strategies to
// parameterise the I/O-estimate model while running inside engine callbacks.
type ShapeInfo struct {
	NonEmptyLevels int
	SortedRuns     int
	L0Files        int
	TotalEntries   uint64
	TotalBytes     uint64
}

// ShapeInfo returns the latest tree-shape snapshot without locking.
func (d *DB) ShapeInfo() ShapeInfo {
	v, _ := d.shapeInfo.Load().(ShapeInfo)
	return v
}

// bloomFPR is the false-positive rate of every table's filter.
var bloomFPR = bloom.FalsePositiveRate(bitsPerKey)

// IOShape derives the I/O model's parameters (stats.Shape, the paper's
// Table 1) from a snapshot of a tree written in blockSize-byte blocks,
// falling back to 3 levels and 16 entries per block while the tree is
// empty. It is the one derivation: the AdCache reward and the experiments'
// hit rate both use it.
func (s ShapeInfo) IOShape(blockSize int) stats.Shape {
	shape := stats.Shape{
		Levels:          3,
		Runs:            s.SortedRuns,
		R0Max:           l0StopTrigger,
		EntriesPerBlock: 16,
		BloomFPR:        bloomFPR,
	}
	if s.NonEmptyLevels > 0 {
		shape.Levels = s.NonEmptyLevels
	}
	if s.TotalBytes > 0 && s.TotalEntries > 0 {
		if blocks := float64(s.TotalBytes) / float64(blockSize); blocks >= 1 {
			shape.EntriesPerBlock = float64(s.TotalEntries) / blocks
		}
	}
	return shape
}

// QueryBlockReads reports cumulative SST block reads issued by Get/Scan —
// the paper's "SST reads" metric (flush, compaction and recovery I/O are
// excluded).
func (d *DB) QueryBlockReads() int64 { return d.metrics.queryBlockReads.Value() }

// QueryBlockHits reports cumulative block-cache hits on the query path.
func (d *DB) QueryBlockHits() int64 { return d.metrics.queryBlockHits.Value() }

// Flush persists every write accepted so far: it seals the active memtable
// and synchronously drains the immutable queue (plus any triggered
// compactions). It is a full barrier with respect to writes that completed
// before the call; writes racing Flush may or may not be included.
func (d *DB) Flush() error {
	if d.closing.Load() {
		return ErrClosed
	}
	d.commitMu.Lock()
	d.drainLocked()
	d.mu.RLock()
	var err error
	if d.closed {
		err = ErrClosed
	} else if d.bgState == bgReadOnly {
		err = d.readOnlyErrLocked()
	}
	hadWork := !d.mem.Empty() || len(d.imm) > 0
	d.mu.RUnlock()
	if err == nil && hadWork {
		err = d.sealMemTable()
	}
	d.commitMu.Unlock()
	if err != nil || !hadWork {
		return err
	}
	if err := d.drainAndCompact(!d.opts.DisableAutoCompaction); err != nil {
		return d.foregroundBgError(err)
	}
	// A successful synchronous flush also clears any transient background
	// failure: the queue is drained and the tree is consistent again.
	d.clearBgError()
	return nil
}

// Compact drains pending flushes and runs compactions until the tree
// satisfies its shape invariants.
func (d *DB) Compact() error {
	if d.closing.Load() {
		return ErrClosed
	}
	d.mu.RLock()
	readOnly := d.bgState == bgReadOnly
	var roErr error
	if readOnly {
		roErr = d.readOnlyErrLocked()
	}
	d.mu.RUnlock()
	if readOnly {
		return roErr
	}
	if err := d.drainAndCompact(true); err != nil {
		return d.foregroundBgError(err)
	}
	d.clearBgError()
	return nil
}

// foregroundBgError feeds a failed foreground Flush/Compact into the error
// handler (background mode only: inline mode reports errors synchronously to
// the writer and keeps no sticky state) and returns the error unchanged. A
// transient failure leaves the worker scheduled to retry, so the DB
// self-heals even when the failing call was a manual one.
func (d *DB) foregroundBgError(err error) error {
	if d.opts.InlineCompaction {
		return err
	}
	if retry, _ := d.noteBgError(err); retry {
		d.notifyWorker()
	}
	return err
}

// Close stops background work, closes the log and commits a last manifest
// edit. Sealed-but-unflushed memtables are not flushed; their WALs stay on
// disk and are replayed on the next Open. Close is idempotent, and writes
// racing Close either commit fully or return ErrClosed.
func (d *DB) Close() error {
	d.closing.Store(true)
	// Wake writers stalled on backpressure so they can observe closing and
	// release commitMu.
	d.mu.Lock()
	d.bgCond.Broadcast()
	d.mu.Unlock()

	d.commitMu.Lock()
	defer d.commitMu.Unlock()
	// Groups already past their append stage publish before the DB closes.
	d.drainLocked()
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	lastSeq := d.lastSeq
	d.bgCond.Broadcast()
	d.mu.Unlock()

	if d.quit != nil {
		close(d.quit)
		d.wg.Wait()
	}

	err := d.log.Close()
	if err == nil {
		_, err = d.store.Commit(&manifest.Edit{
			Kind:        manifest.EditClose,
			NextFileNum: d.nextFileNum.Load(),
			LastSeq:     lastSeq,
		})
	}
	if cerr := d.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// IOStats returns cumulative file I/O counters. ReadOps counts device read
// calls, each of which may carry several coalesced blocks; the paper's "SST
// reads" — blocks — is QueryBlockReads.
func (d *DB) IOStats() vfs.StatsSnapshot { return d.fs.Stats.Snapshot() }

// Metrics summarises engine state for stats collection and tools.
type Metrics struct {
	LevelFiles      []int
	LevelBytes      []uint64
	L0Files         int
	NonEmptyLevels  int
	SortedRuns      int
	TotalEntries    uint64
	TotalBytes      uint64
	MemTableEntries int
	MemTableBytes   int64
	ImmMemTables    int
	// ImmMemTableBytes is the physical bytes pinned by the sealed queue;
	// MemTableBudget the dynamic unified-memory budget (0 = static sizing);
	// MemTableTarget the flush threshold currently in force.
	ImmMemTableBytes int64
	MemTableBudget   int64
	MemTableTarget   int64
	Flushes          int64
	Compactions      int64
	// Subcompactions counts shard merges: equal to Compactions when every
	// compaction ran serially, larger when range-partitioned shards ran.
	Subcompactions     int64
	StallSlowdowns     int64
	StallStops         int64
	WriteGroups        int64
	CompactedBytes     int64
	CompactionOutBytes int64
	// LevelCompactionInBytes[l] is the cumulative compaction input bytes
	// drawn from level l; LevelCompactionOutBytes[l] the output bytes
	// written into it. Their per-level ratio is the compaction
	// write-amplification profile of the tree.
	LevelCompactionInBytes  []int64
	LevelCompactionOutBytes []int64
	FlushedBytes            int64
	UserBytes               int64
	LastSeq                 uint64
	// Error-handler state: BgState is "healthy", "retrying" or
	// "read-only"; BgErrorKind classifies the failure ("none",
	// "transient", "no-space", "corruption"); BgLastError is the latest
	// background failure text ("" when healthy).
	BgState     string
	BgErrorKind string
	BgLastError string
	// BgRetries counts background retry attempts; Resumes counts Resume
	// calls that exited read-only mode; WALRemoveErrors counts WAL
	// deletions that failed after a successful flush (non-fatal).
	BgRetries       int64
	Resumes         int64
	WALRemoveErrors int64
	// BgIOStallNanos is cumulative time background flush/compaction writers
	// spent throttled by the Options.BgIOBytesPerSec token bucket.
	BgIOStallNanos int64
	// SSTReadCalls and SSTReadBytes count the device reads issued by table
	// readers (queries, compaction, table opens, integrity checks): one
	// call may carry several coalesced blocks. ScanLazySkippedRuns counts
	// sorted runs that scans positioned but never had to open.
	SSTReadCalls        int64
	SSTReadBytes        int64
	ScanLazySkippedRuns int64
	// AdmissionsSkippedStalePoint/Scan count disk-served Get and scan
	// results returned to their caller but not offered to the result cache:
	// a write landed on their key span while they were being read, so they
	// describe their snapshot, not the present. Always 0 on read-only
	// traffic.
	AdmissionsSkippedStalePoint int64
	AdmissionsSkippedStaleScan  int64
	// bgStateNum is the numeric form of BgState for the lsm_bg_state gauge
	// (0 healthy, 1 retrying, 2 read-only).
	bgStateNum int
}

// WriteAmplification reports total bytes written to SSTables (flush +
// compaction outputs) per user byte, the standard LSM write-amplification
// measure. Zero before any writes.
func (m Metrics) WriteAmplification() float64 {
	if m.UserBytes == 0 {
		return 0
	}
	return float64(m.FlushedBytes+m.CompactionOutBytes) / float64(m.UserBytes)
}

// Metrics returns a point-in-time engine summary: tree shape and memtable
// state under d.mu, every cumulative counter from its registry cell. It is
// the one snapshot /v1/stats, the engine's /metrics collector and the tools
// all read.
func (d *DB) Metrics() Metrics {
	d.snapshots.Add(1)
	d.mu.RLock()
	defer d.mu.RUnlock()
	m := Metrics{
		LevelFiles:       make([]int, len(d.version.Levels)),
		LevelBytes:       make([]uint64, len(d.version.Levels)),
		L0Files:          len(d.version.Levels[0]),
		NonEmptyLevels:   d.version.NumNonEmptyLevels(),
		SortedRuns:       d.version.NumSortedRuns(),
		MemTableEntries:  d.mem.Count(),
		MemTableBytes:    d.mem.ApproximateSize(),
		ImmMemTables:     len(d.imm),
		ImmMemTableBytes: d.immBytesLocked(),
		MemTableBudget:   d.memBudget.Load(),
		MemTableTarget:   d.activeMemTargetLocked(),
		LastSeq:          d.lastSeq,
		BgState:          d.bgState.String(),
		bgStateNum:       int(d.bgState),
		BgErrorKind:      d.bgKind.String(),
		SSTReadCalls:     d.tc.fs.Stats.ReadOps.Load(),
		SSTReadBytes:     d.tc.fs.Stats.ReadBytes.Load(),
	}
	for _, s := range counterSeries {
		if s.field != nil {
			*s.field(&m) = (*s.cell(&d.metrics)).Value()
		}
	}
	for l := range d.metrics.levelCompactIn {
		m.LevelCompactionInBytes = append(m.LevelCompactionInBytes, d.metrics.levelCompactIn[l].Value())
		m.LevelCompactionOutBytes = append(m.LevelCompactionOutBytes, d.metrics.levelCompactOut[l].Value())
	}
	if d.bgCause != nil {
		m.BgLastError = d.bgCause.Error()
	}
	for i, level := range d.version.Levels {
		m.LevelFiles[i] = len(level)
		m.LevelBytes[i] = d.version.SizeOfLevel(i)
		for _, f := range level {
			m.TotalEntries += f.NumEntries
			m.TotalBytes += f.Size
		}
	}
	return m
}

// MetricsSnapshots reports how many times Metrics has run — a test hook for
// the rule that one /metrics render takes the engine snapshot once.
func (d *DB) MetricsSnapshots() int64 { return d.snapshots.Load() }

// BgState names the background error handler's mode — "healthy",
// "retrying" or "read-only" — for callers that need only that (the health
// probe) and not a whole Metrics snapshot.
func (d *DB) BgState() string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.bgState.String()
}

// Options returns the effective options the DB runs with.
func (d *DB) Options() Options { return d.opts }

func (d *DB) String() string {
	m := d.Metrics()
	return fmt.Sprintf("lsm.DB{levels=%v runs=%d entries=%d bytes=%d}",
		m.LevelFiles, m.SortedRuns, m.TotalEntries, m.TotalBytes)
}

// pickerConfig adapts Options to the compaction picker.
func (d *DB) pickerConfig() compaction.Config {
	return compaction.Config{
		L0Trigger:    l0CompactTrigger,
		L1TargetSize: d.opts.L1TargetSize,
		SizeRatio:    levelSizeRatio,
		NumLevels:    numLevels,
	}
}
