package core

import (
	"sync"
	"sync/atomic"

	"adcache/internal/cache/blockcache"
	"adcache/internal/cache/rangecache"
	"adcache/internal/lsm"
	"adcache/internal/rl"
	"adcache/internal/sketch"
	"adcache/internal/sstable"
	"adcache/internal/stats"
	"adcache/internal/vfs"
)

// Params are the applied cache-control parameters for the current window:
// the actor's decoded output (one window behind the latest statistics,
// §4.2).
type Params struct {
	// RangeRatio is the fraction of the cache budget held by the range
	// cache (the block cache holds the rest). With memtable arbitration the
	// cache budget is Capacity minus the memtable share.
	RangeRatio float64
	// PointThreshold is the absolute normalized-frequency score a missed
	// key must reach to be admitted (§3.4).
	PointThreshold float64
	// ScanA is the full-admission scan length threshold a, in keys.
	ScanA int
	// ScanB is the partial-admission aggressiveness b ∈ [0,1].
	ScanB float64
	// MemRatio is the fraction of the unified budget allotted to the
	// active + immutable memtables. Always 0 unless
	// Config.MemtableArbitration is set.
	MemRatio float64
}

// sub returns p − q per parameter (the residual of p around a prior q).
func (p Params) sub(q Params) Params {
	return Params{
		RangeRatio:     p.RangeRatio - q.RangeRatio,
		PointThreshold: p.PointThreshold - q.PointThreshold,
		ScanA:          p.ScanA - q.ScanA,
		ScanB:          p.ScanB - q.ScanB,
		MemRatio:       p.MemRatio - q.MemRatio,
	}
}

// Config configures an AdCache instance.
type Config struct {
	// Capacity is the total byte budget shared by block and range caches —
	// and, with MemtableArbitration, by the memtables too: one unified
	// ledger the agent moves bytes across as the read/write mix drifts.
	Capacity int64

	// MemtableArbitration extends the arbiter across the write side:
	// the action space gains a memtable-share dimension, the state vector
	// gains write-side features, and the bound DB's flush threshold tracks
	// the agent's allocation (via lsm.DB.SetMemTableBudget; shrinks apply
	// at the next memtable rotation). The reward becomes mix-weighted
	// between read hit rate and write efficiency (1/write-amplification).
	MemtableArbitration bool
	// InitialMemRatio seeds the memtable share before the agent's first
	// decision (default 0.25; meaningful only with MemtableArbitration,
	// and pinned there by DisablePartitioning).
	InitialMemRatio float64
	// WindowSize is the operations-per-window control interval
	// (paper default: 1000).
	WindowSize int
	// Alpha is the reward smoothing factor (paper default: 0.9).
	Alpha float64
	// InitialRangeRatio seeds the boundary before the agent's first
	// decision (and fixes it when DisablePartitioning is set).
	InitialRangeRatio float64

	// DisableAdmission turns off both point and scan admission control
	// (Figure 11b's "partitioning only" ablation).
	DisableAdmission bool
	// DisablePartitioning freezes the boundary at InitialRangeRatio
	// (Figure 11b's "admission only" ablation).
	DisablePartitioning bool

	// RL configures the agent; zero value uses the paper's defaults.
	RL rl.Config
	// ModelFS/ModelPath optionally load an agent saved with rl.Agent.Save —
	// one that has already learned its residual online elsewhere.
	ModelFS   vfs.FS
	ModelPath string

	// RecordTrace keeps a per-window trace of rewards and parameters
	// (used to regenerate Figure 10).
	RecordTrace bool

	// DisableHysteresis applies every ratio action to the boundary verbatim,
	// including exploration jitter (ablation: quantifies the eviction churn
	// §3.5 warns about).
	DisableHysteresis bool

	// SyncTuning runs the control step inline on the operation that closes
	// each window instead of on the background goroutine. Production mode
	// is asynchronous (§4.2: learning never blocks serving, late windows
	// are skipped); experiments use synchronous tuning so every window is
	// processed and runs are machine-speed independent.
	SyncTuning bool
}

// Fixed scales of the action decoding; no caller tunes them.
const (
	// maxScanLen normalises the ScanA action.
	maxScanLen = 128
	// pointThresholdScale maps the actor's [0,1] threshold action onto
	// normalized-frequency scores, which concentrate near zero.
	pointThresholdScale = 0.01
	// memRatioMin and memRatioMax bound the decoded memtable share: the
	// engine always keeps a working write buffer, and the caches are never
	// starved below 40% of the budget.
	memRatioMin = 0.05
	memRatioMax = 0.6
)

func (c Config) withDefaults() Config {
	if c.WindowSize <= 0 {
		c.WindowSize = 1000
	}
	if c.Alpha <= 0 {
		c.Alpha = 0.9
	}
	if c.InitialRangeRatio <= 0 {
		c.InitialRangeRatio = 0.5
	}
	if c.InitialMemRatio <= 0 {
		c.InitialMemRatio = 0.25
	}
	if c.RL.ActorLR == 0 && c.RL.Seed == 0 {
		frozen := c.RL.Frozen
		c.RL = rl.DefaultConfig()
		c.RL.Frozen = frozen
	}
	return c
}

// WindowTrace records one control window for experiment plots: the applied
// (post-hysteresis) Params, the Prior decoded for the window, and the
// agent's Residual around it (its chosen parameters minus the prior, before
// hysteresis).
type WindowTrace struct {
	Window    stats.Window
	HEstimate float64
	HSmoothed float64
	Reward    float64
	Params    Params
	Prior     Params
	Residual  Params
	ActorLR   float64
}

// AdCache is the paper's contribution: block and range caches under one
// budget with an RL-driven boundary and admission control. It implements
// lsm.CacheStrategy and is safe for concurrent use; learning runs on a
// background goroutine decoupled from the serving path (§4.2).
type AdCache struct {
	cfg Config

	block     *blockcache.Cache
	rng       *rangecache.Cache
	cms       *sketch.CMS
	collector *stats.Collector
	agent     *rl.Agent

	params atomic.Value // Params

	opCount atomic.Int64
	tuneCh  chan struct{}
	done    chan struct{}
	stopped sync.Once
	tuneMu  sync.Mutex // serialises tuneOnce and Pin
	pinned  bool       // guarded by tuneMu; see Pin

	// Bound DB (optional): provides live LSM shape for the I/O model.
	mu       sync.Mutex
	db       *lsm.DB
	smoothed float64
	haveInit bool
	trace    []WindowTrace
	tuning   TuningState // last closed window's controller view (metrics)

	lastBlockStats blockcache.Stats
	// lastWriteInfo is the previous window's write-side snapshot, owned by
	// the tuner (like lastBlockStats) for per-window deltas.
	lastWriteInfo lsm.WriteSideInfo
	windowsClosed atomic.Int64
}

// New returns a started AdCache whose range cache is sharded at splitKeys
// (§4.4; nil for one shard). Call Close to stop its tuning goroutine.
func New(cfg Config, splitKeys []string) (*AdCache, error) {
	cfg = cfg.withDefaults()
	a := &AdCache{
		cfg:       cfg,
		cms:       sketch.New(4, 1<<14),
		collector: &stats.Collector{},
		agent:     rl.New(cfg.RL),
		tuneCh:    make(chan struct{}, 1),
		done:      make(chan struct{}),
	}
	if cfg.ModelFS != nil && cfg.ModelPath != "" {
		if err := a.agent.Load(cfg.ModelFS, cfg.ModelPath); err != nil {
			return nil, err
		}
	}
	initialMemRatio := 0.0
	if cfg.MemtableArbitration {
		initialMemRatio = cfg.InitialMemRatio
	}
	cacheBytes := cfg.Capacity - int64(float64(cfg.Capacity)*initialMemRatio)
	rangeBytes := int64(float64(cacheBytes) * cfg.InitialRangeRatio)
	// Shard sizing uses the full budget (the boundary may move the whole
	// budget to the block side later); the initial split applies via Resize.
	a.block = blockcache.New(cfg.Capacity)
	a.block.Resize(cacheBytes - rangeBytes)
	a.rng = rangecache.New(rangecache.Options{Capacity: rangeBytes, SplitKeys: splitKeys}) // LRU
	a.params.Store(Params{
		RangeRatio:     cfg.InitialRangeRatio,
		PointThreshold: 0,
		ScanA:          16, // paper: initialised to the short-scan length
		ScanB:          0.5,
		MemRatio:       initialMemRatio,
	})
	if !cfg.SyncTuning {
		go a.tuneLoop()
	}
	return a, nil
}

// Bind attaches the DB so the tuner can read live LSM shape (levels, runs,
// entries per block) for the I/O-estimate reward — and, with memtable
// arbitration, pushes the current memtable allocation into the engine's
// dynamic flush threshold. Optional but recommended (required for
// MemtableArbitration to have any effect).
func (a *AdCache) Bind(db *lsm.DB) {
	a.mu.Lock()
	a.db = db
	a.mu.Unlock()
	if a.cfg.MemtableArbitration && db != nil {
		db.SetMemTableBudget(int64(float64(a.cfg.Capacity) * a.CurrentParams().MemRatio))
	}
}

// Close stops the background tuner.
func (a *AdCache) Close() {
	a.stopped.Do(func() { close(a.done) })
}

// CurrentParams returns the parameters in force for the current window.
func (a *AdCache) CurrentParams() Params { return a.params.Load().(Params) }

// Agent exposes the RL agent (to save what it has learned).
func (a *AdCache) Agent() *rl.Agent { return a.agent }

// Pin applies the decoded action act verbatim (no hysteresis) and holds it:
// windows keep closing and statistics keep flowing, but the agent neither
// acts nor learns again. It is how the controlled experiments behind the
// prior's calibration table (adbench -exp calibrate) hold a static setting.
func (a *AdCache) Pin(act rl.Action) {
	a.tuneMu.Lock()
	defer a.tuneMu.Unlock()
	a.pinned = true
	a.setParams(a.decodeAction(act))
}

// Trace returns the recorded per-window trace (RecordTrace must be set).
func (a *AdCache) Trace() []WindowTrace {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]WindowTrace(nil), a.trace...)
}

// Windows reports how many control windows have been processed.
func (a *AdCache) Windows() int64 { return a.windowsClosed.Load() }

// Block and Range expose the component caches for metrics.
func (a *AdCache) Block() *blockcache.Cache { return a.block }
func (a *AdCache) Range() *rangecache.Cache { return a.rng }

// countOp advances the window clock and pokes the tuner at boundaries.
//
// Under concurrent traffic the callbacks invoking this run simultaneously
// (reads share the engine's read lock), so the window counter is atomic and
// exactly one goroutine observes each boundary. In SyncTuning mode that
// goroutine runs the control step inline under tuneMu while its peers keep
// serving — resizes are safe mid-flight because both component caches are
// sharded and internally synchronised. Deterministic windows additionally
// require a single-threaded op stream (and lsm.Options.InlineCompaction),
// which is how the experiment harness runs.
func (a *AdCache) countOp() {
	n := a.opCount.Add(1)
	if n%int64(a.cfg.WindowSize) != 0 {
		return
	}
	if a.cfg.SyncTuning {
		a.tuneMu.Lock()
		a.tuneOnce()
		a.tuneMu.Unlock()
		return
	}
	select {
	case a.tuneCh <- struct{}{}:
	default: // tuner busy; the next boundary will retrigger
	}
}

// GetCached implements lsm.CacheStrategy.
func (a *AdCache) GetCached(key []byte) ([]byte, bool, bool) {
	a.countOp()
	if v, ok := a.rng.Get(key); ok {
		a.collector.RecordPoint(true)
		return v, true, true
	}
	a.collector.RecordPoint(false)
	return nil, false, false
}

// ScanCached implements lsm.CacheStrategy.
func (a *AdCache) ScanCached(start []byte, n int) ([]lsm.KV, bool) {
	a.countOp()
	kvs, ok := a.rng.Scan(start, n)
	a.collector.RecordScan(n, ok)
	return kvs, ok
}

// OnPointResult implements lsm.CacheStrategy: frequency-based admission.
// Every disk-served miss increments the key's sketch counter; the key is
// admitted only when its normalized score clears the RL-tuned threshold.
func (a *AdCache) OnPointResult(key, value []byte, blockReads int) {
	a.collector.RecordBlockReads(blockReads)
	if value == nil {
		return
	}
	if a.rangeCapacityTiny() {
		return
	}
	if a.cfg.DisableAdmission {
		a.rng.InsertPoint(key, value)
		a.collector.RecordPointAdmission(true)
		return
	}
	a.cms.Increment(key)
	score := a.cms.Score(key)
	p := a.CurrentParams()
	admit := score >= p.PointThreshold
	a.collector.RecordPointAdmission(admit)
	if admit {
		a.rng.InsertPoint(key, value)
	}
}

// OnScanResult implements lsm.CacheStrategy: partial admission (§3.4).
// Scans of length l ≤ a are cached whole. Longer scans contribute b·(l−a)
// entries *beyond the already-covered prefix*, so repeated or overlapping
// scans extend coverage step by step — after roughly 1/b repetitions the
// full range is cached — while one-off long scans stay bounded.
func (a *AdCache) OnScanResult(start []byte, entries []lsm.KV, blockReads int) {
	a.collector.RecordBlockReads(blockReads)
	if len(entries) == 0 || a.rangeCapacityTiny() {
		return
	}
	// How much of the result is cached already is measured by the same
	// lock visit that admits past it.
	grow := len(entries)
	if p := a.CurrentParams(); !a.cfg.DisableAdmission {
		grow = partialAdmitGrowth(p, grow)
	}
	admitted := a.rng.ExtendScan(start, entries, grow)
	a.collector.RecordScanAdmission(admitted, len(entries))
}

// partialAdmitGrowth decides how many entries of a scan result of length l
// to admit beyond those already cached: all of a scan up to p.ScanA long, a
// p.ScanB share of what a longer one has beyond p.ScanA.
func partialAdmitGrowth(p Params, l int) int {
	if l <= p.ScanA {
		return l
	}
	return max(int(p.ScanB*float64(l-p.ScanA)), 1)
}

// rangeCapacityTiny reports whether the range cache is too small to hold
// even one typical entry (the boundary has been pushed to the block side).
func (a *AdCache) rangeCapacityTiny() bool { return a.rng.Capacity() < 256 }

// OnWrite implements lsm.CacheStrategy: write-through coherence for the
// range cache.
func (a *AdCache) OnWrite(key, value []byte, deleted bool) {
	a.countOp()
	a.collector.RecordWrite()
	if deleted {
		a.rng.Delete(key)
	} else {
		a.rng.Put(key, value)
	}
}

// BlockCache implements lsm.CacheStrategy.
func (a *AdCache) BlockCache() sstable.BlockCache { return a.block }

// ScanBlockFillQuota implements lsm.CacheStrategy: block-level partial
// admission. Short scans fill freely; long scans may insert only the blocks
// corresponding to their admitted key prefix.
func (a *AdCache) ScanBlockFillQuota(scanLen int) (int64, bool) {
	if a.cfg.DisableAdmission {
		return 0, false
	}
	p := a.CurrentParams()
	if scanLen <= p.ScanA {
		return 0, false // full admission
	}
	// Block-level admission has no per-range coverage notion; budget the
	// first-pass admission count (nothing covered yet).
	admitKeys := partialAdmitGrowth(p, scanLen)
	shape, _ := a.shape()
	b := shape.EntriesPerBlock
	if b < 1 {
		b = 1
	}
	return int64(float64(admitKeys)/b) + 1, true
}

// OnCompaction implements lsm.CacheStrategy. Block entries of dead files
// age out of the LRU naturally (the realistic invalidation cost); the range
// cache is immune by construction.
func (a *AdCache) OnCompaction([]uint64, []uint64) {}

// dbWriteInfo returns the bound DB's lock-free write-side snapshot (zero
// value when no DB is bound). Like shape it is safe from inside engine
// callbacks: the snapshot is an atomic load, never d.mu.
func (a *AdCache) dbWriteInfo() lsm.WriteSideInfo {
	a.mu.Lock()
	db := a.db
	a.mu.Unlock()
	if db == nil {
		return lsm.WriteSideInfo{}
	}
	return db.WriteSideInfo()
}

// shape returns the I/O model of the bound DB's live tree (of an empty tree
// when none is bound) and the cache budget's share of the live data (the
// prior's second key): until a bound DB reports its size, the paper's
// default cache size, 10 % of the database. It reads only lock-free
// snapshots so it is safe from inside engine callbacks (synchronous tuning).
func (a *AdCache) shape() (shape stats.Shape, cacheShare float64) {
	a.mu.Lock()
	db := a.db
	a.mu.Unlock()
	var info lsm.ShapeInfo
	blockSize := 0
	if db != nil {
		info, blockSize = db.ShapeInfo(), db.Options().BlockSize
	}
	cacheShare = 0.1
	if info.TotalBytes > 0 {
		cacheShare = float64(a.cfg.Capacity) / float64(info.TotalBytes)
	}
	return info.IOShape(blockSize), cacheShare
}
