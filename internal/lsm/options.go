package lsm

import (
	"time"

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

	// MemTableSize is the flush threshold in bytes.
	MemTableSize int64
	// Compression selects per-block SSTable compression
	// (sstable.CompressionNone or sstable.CompressionFlate). Default none:
	// the physical and logical layouts coincide, as before this option
	// existed. With flate, the block cache holds compressed images and its
	// budget charges physical bytes.
	Compression sstable.Compression
	// TargetFileSize is the SSTable size compactions aim for
	// (paper: 4 MiB; scaled down by default here).
	TargetFileSize int64
	// L1TargetSize is the byte budget of L1; level i target is
	// L1TargetSize * levelSizeRatio^(i-1).
	L1TargetSize int64

	// Logf, when non-nil, receives error-handler and recovery events
	// (background failures, retries, mode transitions, orphan cleanup).
	Logf func(format string, args ...any)

	// Strategy receives cache callbacks; nil disables all caching.
	Strategy CacheStrategy

	// InlineCompaction runs flushes and compactions synchronously on the
	// writer's goroutine, the pre-concurrency behaviour: every flush point
	// and compaction is a deterministic function of the operation stream.
	// An AdCache bound to such a DB tunes inline on the operation that
	// closes each window, so experiments that set it are machine-speed
	// independent; production leaves it off and gets a background
	// flush/compaction worker with real write backpressure and the
	// asynchronous tuner.
	InlineCompaction bool

	// The fields below are not settable outside the package: every caller
	// runs with their defaults, and only the package's own tests vary them.

	// blockSize is the SSTable data-block size (paper: 4 KiB). The I/O
	// model reads it through ShapeInfo.
	blockSize int
	// maxImmutableMemTables bounds the queue of sealed memtables awaiting
	// background flush. Writers stall once the queue is full (RocksDB's
	// max_write_buffer_number analogue). Ignored with InlineCompaction.
	// Default 2.
	maxImmutableMemTables int
	// paranoidChecks re-reads and fully verifies every flush and
	// compaction output table (checksums, key order, entry count, bounds)
	// before installing it in a version. A bad write is deleted and
	// surfaces as a retryable background error instead of persisted
	// corruption. Costs one extra read pass per table written. Default off.
	paranoidChecks bool
	// bgRetryBase is the first retry delay after a transient background
	// flush/compaction failure; successive failures double it up to
	// bgRetryMaxDelay. Defaults 5 ms and 1 s, so a failing device is
	// retried at a falling rate, not in a hot loop.
	bgRetryBase     time.Duration
	bgRetryMaxDelay time.Duration
	// bgMaxRetries caps consecutive background failures; the one that
	// reaches it parks the DB read-only (Resume exits). Default
	// defaultBgMaxRetries, about a minute of retries under the default
	// backoff.
	bgMaxRetries int
	// disableAutoCompaction turns off flush-triggered compaction, so a
	// test can stage L0 by hand.
	disableAutoCompaction bool
	// seed makes memtable skiplists deterministic. Default 1.
	seed int64
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
	// InlineCompaction (there the stall IS the inline compaction). A
	// slowdown costs what the timer gives, not this constant: on a 2-vCPU
	// Linux VM (Intel Xeon) time.Sleep(100µs) returns after about 1.1 ms,
	// and traced embed_write windows measured 0.76–0.94 ms of stall per
	// slowdown.
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
// between.
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
	if o.blockSize <= 0 {
		o.blockSize = 4096
	}
	if o.TargetFileSize <= 0 {
		o.TargetFileSize = 256 << 10 // 256 KiB (paper: 4 MiB at 100 GB scale)
	}
	if o.L1TargetSize <= 0 {
		o.L1TargetSize = 1 << 20 // 1 MiB
	}
	if o.maxImmutableMemTables <= 0 {
		o.maxImmutableMemTables = 2
	}
	if o.bgRetryBase <= 0 {
		o.bgRetryBase = 5 * time.Millisecond
	}
	if o.bgRetryMaxDelay <= 0 {
		o.bgRetryMaxDelay = time.Second
	}
	if o.bgMaxRetries <= 0 {
		o.bgMaxRetries = defaultBgMaxRetries
	}
	if o.seed == 0 {
		o.seed = 1
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
