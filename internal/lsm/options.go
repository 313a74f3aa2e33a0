package lsm

import (
	"time"

	"adcache/internal/metrics"
	"adcache/internal/sstable"
	"adcache/internal/vfs"
)

// Compression aliases the SSTable block codec so callers configure Options
// without importing the sstable package.
type Compression = sstable.Compression

// Re-exported compression codecs.
const (
	CompressionNone  = sstable.CompressionNone
	CompressionFlate = sstable.CompressionFlate
)

// Options configures a DB. The zero value is usable after withDefaults;
// callers normally start from DefaultOptions.
type Options struct {
	// FS is the file system holding the database. Defaults to a fresh
	// in-memory file system.
	FS vfs.FS
	// Dir is the database directory.
	Dir string

	// MemTableSize is the flush threshold in bytes. It is the static
	// threshold; a cache strategy driving unified memory arbitration can
	// override it dynamically via DB.SetMemTableBudget.
	MemTableSize int64
	// MinMemTableSize floors the dynamic flush threshold when a memtable
	// budget is set (DB.SetMemTableBudget): however small the arbiter's
	// allocation, the active memtable may always grow to this size, so a
	// shrinking budget degrades to frequent small flushes instead of
	// livelocking the write path. Default 32 KiB.
	MinMemTableSize int64
	// BlockSize is the SSTable data-block size (paper: 4 KiB).
	BlockSize int
	// Compression selects per-block SSTable compression
	// (sstable.CompressionNone or sstable.CompressionFlate). Default none:
	// the physical and logical layouts coincide, as before this option
	// existed. With flate, the block cache holds compressed images and its
	// budget charges physical bytes.
	Compression sstable.Compression
	// BgIOBytesPerSec rate-limits flush and compaction writes with a token
	// bucket so background work cannot starve foreground reads on a real
	// disk (RocksDB's rate_limiter analogue). 0 disables the limit.
	BgIOBytesPerSec int64
	// TargetFileSize is the SSTable size compactions aim for
	// (paper: 4 MiB; scaled down by default here).
	TargetFileSize int64
	// L1TargetSize is the byte budget of L1; level i target is
	// L1TargetSize * levelSizeRatio^(i-1).
	L1TargetSize int64

	// MaxImmutableMemTables bounds the queue of sealed memtables awaiting
	// background flush. Writers stall once the queue is full (RocksDB's
	// max_write_buffer_number analogue). Ignored with InlineCompaction.
	MaxImmutableMemTables int

	// CompactionParallelism bounds the worker pool that executes one
	// compaction as range-partitioned subcompactions (RocksDB's
	// max_subcompactions analogue): the plan's keyspace is cut into at most
	// this many byte-balanced shards which merge and write outputs
	// concurrently, and the results install as one atomic version edit.
	// 1 runs the serial path unchanged. 0 (the default) resolves to
	// min(GOMAXPROCS, 4) — or to 1 under InlineCompaction, where
	// deterministic experiments need a machine-independent file layout.
	CompactionParallelism int

	// ParanoidChecks re-reads and fully verifies every flush and
	// compaction output table (checksums, key order, entry count, bounds)
	// before installing it in a version. A bad write is deleted and
	// surfaces as a retryable background error instead of persisted
	// corruption. Costs one extra read pass per table written.
	ParanoidChecks bool

	// BgRetryBase is the first retry delay after a transient background
	// flush/compaction failure; successive failures double it up to
	// BgRetryMaxDelay. Defaults: 5ms base, 1s cap.
	BgRetryBase     time.Duration
	BgRetryMaxDelay time.Duration
	// BgMaxRetries caps consecutive transient-failure retries; when
	// exceeded the DB degrades to read-only (Resume exits). 0 retries
	// forever at the capped delay, matching RocksDB's auto-resume.
	BgMaxRetries int

	// Logf, when non-nil, receives error-handler and recovery events
	// (background failures, retries, mode transitions, orphan cleanup).
	Logf func(format string, args ...any)

	// Strategy receives cache callbacks; nil disables all caching.
	Strategy CacheStrategy

	// MetricsRegistry receives the engine's latency histograms, counters
	// and tree-shape gauges. Nil creates a private registry, so metrics
	// collection is always on (it costs two clock reads per operation) and
	// multiple DBs in one process never collide.
	MetricsRegistry *metrics.Registry

	// InlineCompaction runs flushes and compactions synchronously on the
	// writer's goroutine, the pre-concurrency behaviour: every flush point
	// and compaction is a deterministic function of the operation stream.
	// Experiments use it (with core.Config.SyncTuning) so runs are
	// machine-speed independent; production leaves it off and gets a
	// background flush/compaction worker with real write backpressure.
	InlineCompaction bool

	// DisableAutoCompaction turns off flush-triggered compaction
	// (tests and tools only).
	DisableAutoCompaction bool
	// PrefetchOnCompaction, when positive, re-populates the block cache
	// after each compaction by reading up to this many blocks from every
	// output file — the mitigation Leaper (VLDB'20) applies to
	// compaction-induced cache invalidation. Off by default, matching
	// RocksDB; the ablation benches compare both settings.
	PrefetchOnCompaction int
	// Seed makes memtable skiplists deterministic.
	Seed int64
}

// The tree shape and write throttle of the paper's RocksDB configuration.
// They are constants: no caller tunes them, and the I/O model
// (ShapeInfo.IOShape) reads the same values the engine runs with.
const (
	// bitsPerKey is the Bloom filter budget (paper: 10).
	bitsPerKey = 10
	// numLevels bounds the tree depth.
	numLevels = 7
	// levelSizeRatio is the size ratio between adjacent levels (paper: 10).
	levelSizeRatio = 10
	// l0CompactTrigger compacts L0 when it holds this many files (paper:
	// write slowdown at 4).
	l0CompactTrigger = 4
	// l0StopTrigger is the hard L0 file cap (paper: write stop at 8).
	l0StopTrigger = 8
	// l0SlowdownDelay is the per-write-group delay applied while L0 holds
	// at least l0CompactTrigger files (the paper's write slowdown), giving
	// background compaction room to catch up. Not applied with
	// InlineCompaction (there the stall IS the inline compaction).
	l0SlowdownDelay = 100 * time.Microsecond
)

// DefaultOptions returns the scaled-down analogue of the paper's RocksDB
// configuration: Options{Dir: dir} with every default filled in.
func DefaultOptions(dir string) Options {
	o := Options{Dir: dir}.withDefaults()
	o.FS = nil // Open creates a fresh in-memory FS for a nil one
	return o
}

// withDefaults fills every unset field from the one defaults table. It is
// idempotent, so DefaultOptions and Open agree whatever a caller sets in
// between. CompactionParallelism stays 0 here: its default depends on
// InlineCompaction, which callers set after DefaultOptions, so Open
// resolves it.
func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = vfs.NewMem()
	}
	if o.Dir == "" {
		o.Dir = "db"
	}
	if o.MemTableSize <= 0 {
		o.MemTableSize = 1 << 20 // 1 MiB
	}
	if o.MinMemTableSize <= 0 {
		o.MinMemTableSize = 32 << 10
	}
	if o.BlockSize <= 0 {
		o.BlockSize = 4096
	}
	if o.TargetFileSize <= 0 {
		o.TargetFileSize = 256 << 10 // 256 KiB (paper: 4 MiB at 100 GB scale)
	}
	if o.L1TargetSize <= 0 {
		o.L1TargetSize = 1 << 20 // 1 MiB
	}
	if o.MaxImmutableMemTables <= 0 {
		o.MaxImmutableMemTables = 2
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// targetSize returns the byte budget for level (1-based levels; level 0 is
// file-count driven).
func (o *Options) targetSize(level int) int64 {
	size := o.L1TargetSize
	for i := 1; i < level; i++ {
		size *= levelSizeRatio
	}
	return size
}
