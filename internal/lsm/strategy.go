package lsm

import (
	"adcache/internal/keys"
	"adcache/internal/sstable"
)

// KV is a key-value pair returned by scans and exchanged with cache
// strategies.
type KV = keys.KV

// CacheCounters aggregates the counters of whichever caches a strategy
// runs. Fields for absent caches stay zero, so one shape serves every
// strategy — the engine and its tools never type-switch on concrete
// strategy types.
type CacheCounters struct {
	BlockHits      int64
	BlockMisses    int64
	BlockEvictions int64
	// BlockUsed is the block cache's physical (resident) byte occupancy;
	// BlockLogicalUsed is what those blocks decode to. The two coincide
	// without compression; their ratio is the cache's effective compression
	// factor, one of the RL agent's state features.
	BlockUsed        int64
	BlockLogicalUsed int64
	BlockCapacity    int64

	RangeGetHits    int64
	RangeGetMisses  int64
	RangeScanHits   int64
	RangeScanMisses int64
	RangePartials   int64
	RangeEvictions  int64
	RangeUsed       int64
	RangeCapacity   int64
	RangeEntries    int

	KVHits      int64
	KVMisses    int64
	KVEvictions int64
}

// CacheStrategy is the integration point between the engine and a caching
// scheme, realising the paper's query-handling and cache-fill paths
// (Figure 5). All methods must be safe for concurrent use.
//
// Query handling: the DB consults GetCached/ScanCached before probing the
// MemTable; SSTable block reads flow through BlockCache(). Cache fill: after
// a disk-served query the DB reports the result via OnPointResult /
// OnScanResult so the strategy can admit it. Writes are reported via OnWrite
// so result caches stay coherent.
//
// Concurrency contract. A read takes a snapshot — memtables, a pinned
// version, the last visible sequence number — under the DB's read lock and
// drops the lock before it probes or reads anything, so no callback below
// ever runs with a device read inside its lock:
//   - GetCached/ScanCached/ScanBlockFillQuota run with no DB lock held, any
//     number at once.
//   - OnPointResult/OnScanResult run under the DB's read lock, taken after
//     the read completed and only for the call; any number may execute
//     simultaneously on different goroutines.
//   - OnWrite runs under the DB's exclusive lock (inside a write group's
//     apply), mutually excluding the two admission callbacks above.
//   - OnCompaction and block-cache fills driven by compaction prefetch run
//     on the background flush/compaction goroutine with no DB lock held,
//     concurrently with all of the above.
//
// Coherence rests on the order OnWrite and the admission callbacks see, not
// on how long a lock is held. A result handed to OnPointResult/OnScanResult
// with a non-nil value / non-empty entries is current at the time of the
// call: no write has touched the key, or any key of [start, last entry] —
// to the scan's bound when it came back short — since the read's snapshot,
// and none can until the callback returns. Entries are therefore every live
// key of that span, which is what lets a range cache record them as
// contiguous. A result that a write has overtaken is still reported, for its
// blockReads, but with a nil value / nil entries: there is nothing to admit.
type CacheStrategy interface {
	// GetCached returns a cached value for key. found distinguishes a
	// cached "key absent" answer (ok=true, found=false) from a cache miss
	// (ok=false).
	GetCached(key []byte) (value []byte, found, ok bool)

	// ScanCached returns the first n pairs starting at start if the cache
	// can prove it has the full contiguous prefix; ok=false otherwise. The
	// pairs may alias the cache's memory, as GetCached's value may: results
	// are read, never written through.
	ScanCached(start []byte, n int) ([]KV, bool)

	// OnPointResult reports a completed point lookup that the cache did not
	// serve. value is nil when the key does not exist, or when the value
	// read is no longer current (see the contract above); blockReads is the
	// number of SST blocks fetched from disk for this lookup.
	OnPointResult(key, value []byte, blockReads int)

	// OnScanResult reports a completed scan of the given result entries —
	// none when the scan found nothing or its result is no longer current.
	// entries is the slice the scan's caller receives: a strategy copies
	// what it keeps and leaves the slice alone. blockReads is the number of
	// SST blocks fetched from disk.
	OnScanResult(start []byte, entries []KV, blockReads int)

	// OnWrite reports a Put (deleted=false) or Delete (deleted=true) so
	// result caches can update or invalidate.
	OnWrite(key, value []byte, deleted bool)

	// BlockCache returns the block cache SSTable readers should use, or nil.
	BlockCache() sstable.BlockCache

	// ScanBlockFillQuota bounds how many blocks a scan of scanLen keys may
	// insert into the block cache (§3.4: partial admission "can also be
	// applied to the block cache"). limited=false means unlimited.
	ScanBlockFillQuota(scanLen int) (quota int64, limited bool)

	// OnCompaction reports that a compaction replaced oldFiles with
	// newFiles, letting strategies account invalidation.
	OnCompaction(oldFiles, newFiles []uint64)

	// Counters snapshots the strategy's cache counters — the unified
	// observability surface every strategy provides.
	Counters() CacheCounters
}

// NoCache is a CacheStrategy that caches nothing; it yields the engine's
// uncached baseline.
type NoCache struct{}

// GetCached implements CacheStrategy.
func (NoCache) GetCached([]byte) ([]byte, bool, bool) { return nil, false, false }

// ScanCached implements CacheStrategy.
func (NoCache) ScanCached([]byte, int) ([]KV, bool) { return nil, false }

// OnPointResult implements CacheStrategy.
func (NoCache) OnPointResult([]byte, []byte, int) {}

// OnScanResult implements CacheStrategy.
func (NoCache) OnScanResult([]byte, []KV, int) {}

// OnWrite implements CacheStrategy.
func (NoCache) OnWrite([]byte, []byte, bool) {}

// BlockCache implements CacheStrategy.
func (NoCache) BlockCache() sstable.BlockCache { return nil }

// ScanBlockFillQuota implements CacheStrategy.
func (NoCache) ScanBlockFillQuota(int) (int64, bool) { return 0, false }

// OnCompaction implements CacheStrategy.
func (NoCache) OnCompaction([]uint64, []uint64) {}

// Counters implements CacheStrategy: the uncached baseline has none.
func (NoCache) Counters() CacheCounters { return CacheCounters{} }
