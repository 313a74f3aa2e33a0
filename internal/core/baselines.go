// Package core implements AdCache — the paper's contribution — and the
// baseline cache strategies it is evaluated against. Every strategy
// satisfies lsm.CacheStrategy and manages a fixed byte budget:
//
//	BlockOnly           RocksDB's default block cache
//	KVOnly              point-result LRU cache ("KV Cache")
//	RangeOnly           Range Cache (ICDE'24), pluggable eviction
//	                    (LRU / LeCaR / Cacheus)
//	AdCache             RL-partitioned block+range caches with admission
//	                    control
package core

import (
	"adcache/internal/cache/lru"
	"adcache/internal/cache/rangecache"
	"adcache/internal/lsm"
	"adcache/internal/sstable"
)

// BlockOnly is the RocksDB-default strategy: all memory to a sharded LRU
// block cache; no result caching.
type BlockOnly struct {
	cache *lru.BlockCache
}

// NewBlockOnly returns a BlockOnly strategy with the given byte budget.
func NewBlockOnly(capacity int64) *BlockOnly {
	return &BlockOnly{cache: lru.NewBlockCache(capacity)}
}

// GetCached implements lsm.CacheStrategy.
func (*BlockOnly) GetCached([]byte) ([]byte, bool) { return nil, false }

// ScanCached implements lsm.CacheStrategy.
func (*BlockOnly) ScanCached([]byte, int) ([]lsm.KV, bool) { return nil, false }

// OnPointResult implements lsm.CacheStrategy.
func (*BlockOnly) OnPointResult([]byte, []byte, int) {}

// OnScanResult implements lsm.CacheStrategy.
func (*BlockOnly) OnScanResult([]byte, []lsm.KV, int) {}

// OnWrite implements lsm.CacheStrategy.
func (*BlockOnly) OnWrite([]byte, []byte, bool) {}

// BlockCache implements lsm.CacheStrategy.
func (b *BlockOnly) BlockCache() sstable.BlockCache { return b.cache }

// ScanBlockFillQuota implements lsm.CacheStrategy.
func (*BlockOnly) ScanBlockFillQuota(int) (int64, bool) { return 0, false }

// Block exposes the underlying cache for metrics.
func (b *BlockOnly) Block() *lru.BlockCache { return b.cache }

// KVOnly is the paper's "KV Cache" baseline: an LRU over point-lookup
// results. Scans receive no caching at all.
type KVOnly struct {
	cache *lru.KVCache
}

// NewKVOnly returns a KVOnly strategy with the given byte budget.
func NewKVOnly(capacity int64) *KVOnly {
	return &KVOnly{cache: lru.NewKVCache(capacity)}
}

// GetCached implements lsm.CacheStrategy.
func (k *KVOnly) GetCached(key []byte) ([]byte, bool) { return k.cache.Get(key) }

// ScanCached implements lsm.CacheStrategy.
func (*KVOnly) ScanCached([]byte, int) ([]lsm.KV, bool) { return nil, false }

// OnPointResult implements lsm.CacheStrategy.
func (k *KVOnly) OnPointResult(key, value []byte, _ int) {
	if value != nil {
		k.cache.Put(key, value)
	}
}

// OnScanResult implements lsm.CacheStrategy.
func (*KVOnly) OnScanResult([]byte, []lsm.KV, int) {}

// OnWrite implements lsm.CacheStrategy: writes invalidate, matching
// RocksDB's row cache — the cache stores lookup results, not write traffic,
// so a written key re-enters only when it is read again.
func (k *KVOnly) OnWrite(key, value []byte, deleted bool) {
	k.cache.Remove(key)
}

// BlockCache implements lsm.CacheStrategy.
func (*KVOnly) BlockCache() sstable.BlockCache { return nil }

// ScanBlockFillQuota implements lsm.CacheStrategy.
func (*KVOnly) ScanBlockFillQuota(int) (int64, bool) { return 0, false }

// RangeOnly is the Range Cache baseline (ICDE'24): all memory to a
// result cache; the eviction policy is pluggable, yielding the paper's
// "Range Cache", "Range Cache with LeCaR" and "Range Cache with Cacheus"
// configurations.
type RangeOnly struct {
	cache *rangecache.Cache
}

// NewRangeOnly returns a RangeOnly strategy. policy is "lru", "lecar" or
// "cacheus".
func NewRangeOnly(capacity int64, policy string) *RangeOnly {
	return &RangeOnly{cache: rangecache.New(rangecache.Options{Capacity: capacity, Policy: policy})}
}

// GetCached implements lsm.CacheStrategy.
func (r *RangeOnly) GetCached(key []byte) ([]byte, bool) { return r.cache.Get(key) }

// ScanCached implements lsm.CacheStrategy.
func (r *RangeOnly) ScanCached(start []byte, n int) ([]lsm.KV, bool) {
	return r.cache.Scan(start, n)
}

// OnPointResult implements lsm.CacheStrategy: all found results are
// admitted (the baseline has no admission control).
func (r *RangeOnly) OnPointResult(key, value []byte, _ int) {
	if value != nil {
		r.cache.InsertPoint(key, value)
	}
}

// OnScanResult implements lsm.CacheStrategy: the whole result is admitted
// (all-or-nothing caching, the behaviour AdCache's partial admission fixes).
func (r *RangeOnly) OnScanResult(start []byte, entries []lsm.KV, _ int) {
	r.cache.InsertScan(start, entries)
}

// OnWrite implements lsm.CacheStrategy.
func (r *RangeOnly) OnWrite(key, value []byte, deleted bool) {
	if deleted {
		r.cache.Delete(key)
	} else {
		r.cache.Put(key, value)
	}
}

// BlockCache implements lsm.CacheStrategy: the pure baseline has none.
func (*RangeOnly) BlockCache() sstable.BlockCache { return nil }

// ScanBlockFillQuota implements lsm.CacheStrategy.
func (*RangeOnly) ScanBlockFillQuota(int) (int64, bool) { return 0, false }

// Range exposes the underlying cache for metrics.
func (r *RangeOnly) Range() *rangecache.Cache { return r.cache }
