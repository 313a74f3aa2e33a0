package core

import (
	"sync"
	"sync/atomic"

	"adcache/internal/cache/lru"
	"adcache/internal/cache/rangecache"
	"adcache/internal/lsm"
	"adcache/internal/rl"
	"adcache/internal/sketch"
	"adcache/internal/sstable"
	"adcache/internal/stats"
)

// Params are the applied cache-control parameters for the current window:
// the actor's decoded output (one window behind the latest statistics,
// §4.2).
type Params struct {
	// RangeRatio is the fraction of the cache budget held by the range
	// cache (the block cache holds the rest).
	RangeRatio float64
	// PointThreshold is the absolute normalized-frequency score a missed
	// key must reach to be admitted (§3.4).
	PointThreshold float64
	// ScanA is the full-admission scan length threshold a, in keys.
	ScanA int
	// ScanB is the partial-admission aggressiveness b ∈ [0,1].
	ScanB float64
}

// sub returns p − q per parameter (the residual of p around a prior q).
func (p Params) sub(q Params) Params {
	return Params{
		RangeRatio:     p.RangeRatio - q.RangeRatio,
		PointThreshold: p.PointThreshold - q.PointThreshold,
		ScanA:          p.ScanA - q.ScanA,
		ScanB:          p.ScanB - q.ScanB,
	}
}

// Config configures an AdCache instance.
type Config struct {
	// Capacity is the total byte budget shared by block and range caches.
	Capacity int64

	// WindowSize is the operations-per-window control interval
	// (paper default: 1000).
	WindowSize int
	// Alpha is the reward smoothing factor (paper default: 0.9).
	Alpha float64

	// DisableAdmission turns off both point and scan admission control
	// (Figure 11b's "partitioning only" ablation).
	DisableAdmission bool
	// DisablePartitioning fixes the boundary at fixedRangeRatio, the whole
	// budget in the range cache like the baseline it modifies (Figure 11b's
	// "admission only" ablation).
	DisablePartitioning bool

	// RL configures the agent; the zero value is the paper's settings.
	RL rl.Config

	// DisableHysteresis applies every ratio action to the boundary verbatim,
	// including exploration jitter (ablation: quantifies the eviction churn
	// §3.5 warns about).
	DisableHysteresis bool
}

// Fixed scales of the action decoding; no caller tunes them.
const (
	// maxScanLen normalises the ScanA action.
	maxScanLen = 128
	// pointThresholdScale maps the actor's [0,1] threshold action onto
	// normalized-frequency scores, which concentrate near zero.
	pointThresholdScale = 0.01
	// initialRangeRatio is the boundary before the agent's first decision.
	initialRangeRatio = 0.5
	// fixedRangeRatio is the boundary under DisablePartitioning.
	fixedRangeRatio = 0.99
)

func (c Config) withDefaults() Config {
	if c.WindowSize <= 0 {
		c.WindowSize = 1000
	}
	if c.Alpha <= 0 {
		c.Alpha = 0.9
	}
	return c
}

// AdCache is the paper's contribution: block and range caches under one
// budget with an RL-driven boundary and admission control. It implements
// lsm.CacheStrategy and is safe for concurrent use; learning runs on a
// background goroutine decoupled from the serving path (§4.2), unless Bind
// attaches an engine that runs InlineCompaction.
type AdCache struct {
	cfg Config

	block     *lru.BlockCache
	rng       *rangecache.Cache
	cms       *sketch.CMS
	collector *stats.Collector
	agent     *rl.Agent

	params atomic.Value // Params

	opCount atomic.Int64
	// inline runs the control step on the operation that closes each
	// window instead of on the background tuner. Bind sets it when the
	// engine runs lsm.Options.InlineCompaction: production mode is
	// asynchronous (§4.2: learning never blocks serving, late windows are
	// skipped); a deterministic engine tunes inline so every window is
	// processed and runs are machine-speed independent.
	inline  atomic.Bool
	tuneCh  chan struct{}
	done    chan struct{}
	stopped sync.Once
	tuneMu  sync.Mutex // serialises tuneOnce and Pin
	pinned  bool       // guarded by tuneMu; see Pin
	// blockBytes and rangeBytes are the cache budgets last applied, and
	// resizes counts the cache resizes that applied them (a test hook);
	// all guarded by tuneMu.
	blockBytes, rangeBytes int64
	resizes                int

	// Bound DB (optional): provides live LSM shape for the I/O model.
	mu       sync.Mutex
	db       *lsm.DB
	smoothed float64
	haveInit bool
	journal  journal // one record per closed window

	lastBlockStats lru.Stats
}

// New returns a started AdCache: it tunes on a background goroutine until
// Bind attaches an engine that runs InlineCompaction. Call Close to stop
// the goroutine.
func New(cfg Config) *AdCache {
	cfg = cfg.withDefaults()
	a := &AdCache{
		cfg:       cfg,
		cms:       sketch.New(4, 1<<14),
		collector: &stats.Collector{},
		agent:     rl.New(cfg.RL),
		tuneCh:    make(chan struct{}, 1),
		done:      make(chan struct{}),
	}
	ratio := initialRangeRatio
	if cfg.DisablePartitioning {
		ratio = fixedRangeRatio
	}
	rangeBytes := int64(float64(cfg.Capacity) * ratio)
	// Shard sizing uses the full budget (the boundary may move the whole
	// budget to either side later); the initial split applies via Resize.
	a.block = lru.NewBlockCache(cfg.Capacity)
	a.block.Resize(cfg.Capacity - rangeBytes)
	a.rng = rangecache.New(rangecache.Options{Capacity: cfg.Capacity}) // LRU
	a.rng.Resize(rangeBytes)
	a.blockBytes, a.rangeBytes = cfg.Capacity-rangeBytes, rangeBytes
	a.params.Store(Params{
		RangeRatio:     ratio,
		PointThreshold: 0,
		ScanA:          16, // paper: initialised to the short-scan length
		ScanB:          0.5,
	})
	go a.tuneLoop()
	return a
}

// Bind attaches the DB so the tuner can read live LSM shape (levels, runs,
// entries per block) for the I/O-estimate reward. Bound to a DB that runs
// InlineCompaction it tunes inline from then on and stops its background
// tuner. Optional but recommended; bind before serving traffic.
func (a *AdCache) Bind(db *lsm.DB) {
	a.mu.Lock()
	a.db = db
	a.mu.Unlock()
	if db.Options().InlineCompaction {
		a.tuneInline()
	}
}

// tuneInline moves the control step onto the operation that closes each
// window and stops the background tuner.
func (a *AdCache) tuneInline() {
	if a.inline.Swap(true) {
		return
	}
	select {
	case a.tuneCh <- struct{}{}: // wakes tuneLoop to exit
	default: // a pending wake-up does the same
	}
}

// Close stops the background tuner.
func (a *AdCache) Close() {
	a.stopped.Do(func() { close(a.done) })
}

// CurrentParams returns the parameters in force for the current window.
func (a *AdCache) CurrentParams() Params { return a.params.Load().(Params) }

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

// Windows reports how many control windows have been processed.
func (a *AdCache) Windows() int64 { return a.TuningState().Windows }

// Block and Range expose the component caches for metrics.
func (a *AdCache) Block() *lru.BlockCache   { return a.block }
func (a *AdCache) Range() *rangecache.Cache { return a.rng }

// countOp advances the window clock and pokes the tuner at boundaries.
//
// Under concurrent traffic the callbacks invoking this run simultaneously
// (reads share the engine's read lock), so the window counter is atomic and
// exactly one goroutine observes each boundary. In inline mode that
// goroutine runs the control step inline under tuneMu while its peers keep
// serving — resizes are safe mid-flight because both component caches are
// sharded and internally synchronised. Deterministic windows additionally
// require a single-threaded op stream, which is how the experiment harness
// runs.
func (a *AdCache) countOp() {
	n := a.opCount.Add(1)
	if n%int64(a.cfg.WindowSize) != 0 {
		return
	}
	if a.inline.Load() {
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
func (a *AdCache) GetCached(key []byte) ([]byte, bool) {
	a.countOp()
	v, ok := a.rng.Get(key)
	a.collector.RecordPoint(ok)
	return v, ok
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
		return
	}
	a.cms.Increment(key)
	score := a.cms.Score(key)
	p := a.CurrentParams()
	if score >= p.PointThreshold {
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
	a.rng.ExtendScan(start, entries, grow)
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
	if db != nil {
		info = db.ShapeInfo()
	}
	cacheShare = 0.1
	if info.TotalBytes > 0 {
		cacheShare = float64(a.cfg.Capacity) / float64(info.TotalBytes)
	}
	return info.IOShape(), cacheShare
}
