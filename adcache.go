// Package adcache is the public API of the AdCache reproduction: an
// LSM-tree key-value store (a scaled-down RocksDB analogue built from
// scratch) whose cache layer is pluggable between the paper's baselines —
// block cache, KV cache, Range Cache (LRU / LeCaR / Cacheus) — and AdCache
// itself, the reinforcement-learning-driven hybrid with admission control.
//
// Quickstart:
//
//	db, err := adcache.Open(adcache.Options{
//		CacheBytes: 4 << 20,
//		Strategy:   adcache.StrategyAdCache,
//	})
//	if err != nil { ... }
//	defer db.Close()
//	db.Put([]byte("k"), []byte("v"))
//	v, ok, err := db.Get([]byte("k"))
//	kvs, err := db.Scan([]byte("a"), 16)
package adcache

import (
	"fmt"
	"strings"

	"adcache/internal/core"
	"adcache/internal/lsm"
	"adcache/internal/vfs"
)

// Strategy selects the cache scheme, mirroring the paper's evaluation
// lineup (§5.1).
type Strategy int

// The evaluated cache strategies. StrategyAdCache is the zero value, so an
// Options literal that only sets CacheBytes gets the paper's system.
const (
	// StrategyAdCache is the paper's system (the default).
	StrategyAdCache Strategy = iota
	// StrategyBlock is RocksDB's default block cache.
	StrategyBlock
	// StrategyKV caches point-lookup results only ("KV Cache").
	StrategyKV
	// StrategyRange is Range Cache with LRU eviction.
	StrategyRange
	// StrategyRangeLeCaR is Range Cache with LeCaR eviction.
	StrategyRangeLeCaR
	// StrategyRangeCacheus is Range Cache with Cacheus eviction.
	StrategyRangeCacheus
	// StrategyNone disables caching entirely (the no-cache baseline of the
	// I/O model). It must be selected explicitly.
	StrategyNone
)

// String names the strategy as in the paper's figures.
func (s Strategy) String() string {
	switch s {
	case StrategyNone:
		return "NoCache"
	case StrategyBlock:
		return "BlockCache"
	case StrategyKV:
		return "KVCache"
	case StrategyRange:
		return "RangeCache"
	case StrategyRangeLeCaR:
		return "RangeCache+LeCaR"
	case StrategyRangeCacheus:
		return "RangeCache+Cacheus"
	case StrategyAdCache:
		return "AdCache"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Strategies lists every scheme in evaluation order.
func Strategies() []Strategy {
	return []Strategy{
		StrategyBlock, StrategyKV, StrategyRange,
		StrategyRangeLeCaR, StrategyRangeCacheus, StrategyAdCache,
	}
}

// Options configures Open.
type Options struct {
	// Dir is the database directory (default "db").
	Dir string
	// FS is the backing file system; nil selects a fresh in-memory FS.
	FS vfs.FS
	// CacheBytes is the total cache budget (all strategies share one
	// number, like the paper's fixed memory budget).
	CacheBytes int64
	// Strategy picks the cache scheme (default StrategyAdCache when
	// CacheBytes > 0, else StrategyNone).
	Strategy Strategy
	// AdCache optionally overrides the AdCache configuration; Capacity is
	// filled from CacheBytes.
	AdCache core.Config
	// LSM optionally overrides engine options — block compression, tree
	// shape; FS/Dir/Strategy fields are managed by Open.
	LSM *lsm.Options
}

// DB is an LSM-tree key-value store with a pluggable cache strategy.
type DB struct {
	inner    *lsm.DB
	strategy lsm.CacheStrategy
	ad       *core.AdCache // non-nil only for StrategyAdCache
	kind     Strategy
}

// Open creates or opens a database.
func Open(opts Options) (*DB, error) {
	if opts.Dir == "" {
		opts.Dir = "db"
	}
	if opts.FS == nil {
		opts.FS = vfs.NewMem()
	}

	var strategy lsm.CacheStrategy
	var ad *core.AdCache
	switch opts.Strategy {
	case StrategyNone:
		strategy = lsm.NoCache{}
	case StrategyBlock:
		strategy = core.NewBlockOnly(opts.CacheBytes)
	case StrategyKV:
		strategy = core.NewKVOnly(opts.CacheBytes)
	case StrategyRange:
		strategy = core.NewRangeOnly(opts.CacheBytes, "lru")
	case StrategyRangeLeCaR:
		strategy = core.NewRangeOnly(opts.CacheBytes, "lecar")
	case StrategyRangeCacheus:
		strategy = core.NewRangeOnly(opts.CacheBytes, "cacheus")
	case StrategyAdCache:
		cfg := opts.AdCache
		cfg.Capacity = opts.CacheBytes
		ad = core.New(cfg)
		strategy = ad
	default:
		return nil, fmt.Errorf("adcache: unknown strategy %v", opts.Strategy)
	}

	lsmOpts := lsm.DefaultOptions(opts.Dir)
	if opts.LSM != nil {
		lsmOpts = *opts.LSM
		lsmOpts.Dir = opts.Dir
	}
	lsmOpts.FS = opts.FS
	lsmOpts.Strategy = strategy

	inner, err := lsm.Open(lsmOpts)
	if err != nil {
		if ad != nil {
			ad.Close()
		}
		return nil, err
	}
	if ad != nil {
		ad.Bind(inner)
	}
	d := &DB{inner: inner, strategy: strategy, ad: ad, kind: opts.Strategy}
	// One registry per DB, the engine's: the cache strategy and the public
	// layer export onto it too (per-DB rather than global because one
	// process routinely opens many stores — the experiment harness does).
	d.registerMetrics(inner.Registry())
	return d, nil
}

// Put stores key=value.
func (d *DB) Put(key, value []byte) error {
	return d.inner.Put(key, value)
}

// Delete removes key.
func (d *DB) Delete(key []byte) error {
	return d.inner.Delete(key)
}

// Get returns the value for key. ok is false when the key does not exist.
func (d *DB) Get(key []byte) (value []byte, ok bool, err error) {
	return d.inner.Get(key)
}

// Scan returns up to n live key-value pairs with key >= start, in order.
func (d *DB) Scan(start []byte, n int) ([]lsm.KV, error) {
	return d.inner.Scan(start, n)
}

// ScanRange returns up to limit live pairs with start <= key < end (nil end
// means unbounded above; limit <= 0 means bounded by end only).
func (d *DB) ScanRange(start, end []byte, limit int) ([]lsm.KV, error) {
	return d.inner.ScanRange(start, end, limit)
}

// NewIter returns a forward iterator over a consistent snapshot of the
// store. The snapshot pins its files against compaction until Close.
// Iterators read through the block cache but bypass result caches.
func (d *DB) NewIter() (*lsm.Iterator, error) { return d.inner.NewIter() }

// NewBatch returns an empty write batch; commit it with Apply.
func (d *DB) NewBatch() *lsm.Batch { return lsm.NewBatch() }

// Apply atomically commits a batch of writes.
func (d *DB) Apply(b *lsm.Batch) error {
	return d.inner.Apply(b)
}

// Flush forces the memtable to disk.
func (d *DB) Flush() error { return d.inner.Flush() }

// Compact forces compactions until the tree shape is satisfied.
func (d *DB) Compact() error { return d.inner.Compact() }

// Resume exits read-only degraded mode (entered when background
// flush/compaction errors exhaust their retries): it clears the error
// state and synchronously re-drives the backlog, so a nil return means
// the tree is healthy and writes flow again. Resuming a healthy DB is a
// no-op. /v1/health reports the degraded state this undoes.
func (d *DB) Resume() error { return d.inner.Resume() }

// Close stops background tuning and closes the store.
func (d *DB) Close() error {
	if d.ad != nil {
		d.ad.Close()
	}
	return d.inner.Close()
}

// Strategy reports the configured cache strategy.
func (d *DB) Strategy() Strategy { return d.kind }

// AdCache returns the AdCache controller when Strategy is StrategyAdCache,
// else nil — used to inspect learned parameters and window traces.
func (d *DB) AdCache() *core.AdCache { return d.ad }

// LSM exposes the underlying engine for metrics and tooling.
func (d *DB) LSM() *lsm.DB { return d.inner }

// SSTReads reports cumulative SST block reads issued by queries — the
// paper's headline I/O metric (compaction and recovery I/O excluded).
func (d *DB) SSTReads() int64 { return d.inner.QueryBlockReads() }

// CacheCounters aggregates the counters of whichever caches the configured
// strategy runs. Fields for absent caches stay zero. It is an alias of the
// engine-level shape: every strategy reports through the same interface
// method, so no layer type-switches on concrete strategies.
type CacheCounters = lsm.CacheCounters

// CacheCounters snapshots the strategy's cache counters.
func (d *DB) CacheCounters() CacheCounters { return d.strategy.Counters() }

// ParseStrategy maps a strategy name — the String() form or a short
// lower-case alias as accepted by the command-line tools — onto a Strategy.
func ParseStrategy(name string) (Strategy, error) {
	switch strings.ToLower(name) {
	case "adcache":
		return StrategyAdCache, nil
	case "block", "blockcache":
		return StrategyBlock, nil
	case "kv", "kvcache":
		return StrategyKV, nil
	case "range", "rangecache":
		return StrategyRange, nil
	case "lecar", "rangecache+lecar":
		return StrategyRangeLeCaR, nil
	case "cacheus", "rangecache+cacheus":
		return StrategyRangeCacheus, nil
	case "none", "nocache":
		return StrategyNone, nil
	}
	return 0, fmt.Errorf("adcache: unknown strategy %q", name)
}
