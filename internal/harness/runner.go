// Package harness builds databases, drives workloads against each cache
// strategy, and regenerates every table and figure of the paper's
// evaluation (§5). Throughput is reported against simulated time
// (wall time + blockReads × readCost) because the backing store is an
// in-memory file system: block-read counts are exact, and the readCost
// model restores the I/O-bound behaviour of the paper's NVMe testbed.
package harness

import (
	"fmt"
	"time"

	"adcache"
	"adcache/internal/core"
	"adcache/internal/lsm"
	"adcache/internal/stats"
	"adcache/internal/vfs"
	"adcache/internal/workload"
)

// Config parameterises one experiment run.
type Config struct {
	// NumKeys and ValueSize define the database (defaults 50_000 × 100 B).
	NumKeys   int
	ValueSize int
	// Skew is the Zipfian theta of point lookups, writes and scan start
	// keys (default 0.9, the paper's default).
	Skew float64
	// Seed drives workload determinism; all strategies see the same ops.
	Seed int64
	// CacheFrac is the cache budget as a fraction of the loaded database
	// size (the paper sizes caches relative to the 100 GB database);
	// default 0.25.
	CacheFrac float64
	// Strategy selects the cache scheme.
	Strategy adcache.Strategy
	// AdCache overrides controller settings (window size, alpha,
	// ablations, a frozen agent...).
	AdCache core.Config
	// AsyncTuning runs the production engine: background flushes and
	// compactions, and with them the asynchronous tuner. Off, the engine
	// runs lsm.Options.InlineCompaction and AdCache tunes inline, so every
	// window is processed and runs are machine-speed independent.
	AsyncTuning bool
}

func (c Config) withDefaults() Config {
	if c.NumKeys <= 0 {
		c.NumKeys = 50_000
	}
	if c.ValueSize <= 0 {
		c.ValueSize = 100
	}
	if c.Skew == 0 {
		c.Skew = 0.9
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// readCost is the simulated per-block-read latency: an NVMe-class 4 KiB
// random read.
const readCost = 40 * time.Microsecond

// Result summarises a measured run.
type Result struct {
	Strategy   string
	Ops        int64
	Points     int64
	Scans      int64
	Writes     int64
	ScanLenSum int64
	BlockReads int64
	BlockHits  int64
	HitRate    float64 // h_estimate from the paper's I/O model
	Wall       time.Duration
	Sim        time.Duration
	QPS        float64 // ops per simulated second
}

// ReadsPerOp reports average block reads per operation.
func (r Result) ReadsPerOp() float64 {
	if r.Ops == 0 {
		return 0
	}
	return float64(r.BlockReads) / float64(r.Ops)
}

// Runner owns a loaded database and a deterministic generator.
type Runner struct {
	Cfg Config
	// CacheBytes is the cache budget CacheFrac resolved to.
	CacheBytes int64
	DB         *adcache.DB
	Gen        *workload.Generator
	fs         *vfs.MemFS
}

// NewRunner builds and loads a database under cfg, compacting it into a
// steady tree before measurement.
func NewRunner(cfg Config) (*Runner, error) {
	cfg = cfg.withDefaults()
	fs := vfs.NewMem()
	gen := workload.NewGenerator(workload.Config{
		NumKeys:   cfg.NumKeys,
		ValueSize: cfg.ValueSize,
		PointSkew: cfg.Skew,
		ScanSkew:  cfg.Skew,
		Seed:      cfg.Seed,
	})

	// First pass with no cache to size the database, then reopen with the
	// requested strategy. Loading is cheap at this scale and keeps cache
	// sizing honest (CacheFrac of the *loaded* size, like the paper).
	//
	// Flush/compaction pressure is scaled with the database: the paper's
	// update-heavy dynamics (block-cache invalidation by compaction) only
	// appear if writes actually churn the tree during a measurement phase.
	lsmOpts := lsm.DefaultOptions("db")
	lsmOpts.MemTableSize = 256 << 10
	lsmOpts.L1TargetSize = 512 << 10
	// Deterministic experiments flush and compact inline on the writer's
	// goroutine, so every flush point is a pure function of the op stream
	// and AdCache tunes inline; AsyncTuning runs opt into the production
	// background write path and tuner.
	lsmOpts.InlineCompaction = !cfg.AsyncTuning
	loadDB, err := adcache.Open(adcache.Options{
		FS: fs, Strategy: adcache.StrategyNone, LSM: &lsmOpts,
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.NumKeys; i++ {
		if err := loadDB.Put(workload.Key(i), gen.InitialValue(i)); err != nil {
			return nil, err
		}
	}
	if err := loadDB.Flush(); err != nil {
		return nil, err
	}
	if err := loadDB.Compact(); err != nil {
		return nil, err
	}
	dbBytes := int64(loadDB.LSM().Metrics().TotalBytes)
	if err := loadDB.Close(); err != nil {
		return nil, err
	}

	cacheBytes := int64(cfg.CacheFrac * float64(dbBytes))
	if cacheBytes <= 0 {
		cacheBytes = dbBytes / 4
	}
	db, err := adcache.Open(adcache.Options{
		FS:         fs,
		CacheBytes: cacheBytes,
		Strategy:   cfg.Strategy,
		AdCache:    cfg.AdCache,
		LSM:        &lsmOpts,
	})
	if err != nil {
		return nil, err
	}
	return &Runner{Cfg: cfg, CacheBytes: cacheBytes, DB: db, Gen: gen, fs: fs}, nil
}

// Close releases the runner's database.
func (r *Runner) Close() error { return r.DB.Close() }

// Shape returns the I/O-model parameters of the live tree.
func (r *Runner) Shape() stats.Shape {
	return r.DB.LSM().ShapeInfo().IOShape()
}

// Warm drives ops operations without measuring (cache warm-up and, for
// AdCache, controller adaptation).
func (r *Runner) Warm(mix workload.Mix, ops int) error {
	_, err := r.drive(mix, ops)
	return err
}

// warmJournal warms like Warm and appends the journal records of the
// windows it closes to recs. A window closes at most once per operation, so
// draining the journal every core.JournalCap operations reads every record
// before the ring overwrites it; the op stream is the one a single Warm
// drives.
func (r *Runner) warmJournal(mix workload.Mix, ops int, recs []core.TuningState) ([]core.TuningState, error) {
	ad := r.DB.AdCache()
	since := ad.Windows()
	for left := ops; left > 0; left -= core.JournalCap {
		if err := r.Warm(mix, min(left, core.JournalCap)); err != nil {
			return recs, err
		}
		got := ad.Journal(since)
		recs = append(recs, got...)
		since += int64(len(got))
	}
	return recs, nil
}

// measure builds a runner under cfg, warms it with sc.WarmOps operations of
// mix and measures sc.MeasureOps more. inspect, when not nil, reads the
// runner before it closes.
func measure(cfg Config, sc Scale, mix workload.Mix, inspect func(*Runner)) (Result, error) {
	r, err := NewRunner(cfg)
	if err != nil {
		return Result{}, err
	}
	defer r.Close()
	if err := r.Warm(mix, sc.WarmOps); err != nil {
		return Result{}, err
	}
	res, err := r.Run(mix, sc.MeasureOps)
	if err == nil && inspect != nil {
		inspect(r)
	}
	return res, err
}

// Run drives ops operations and returns measurements.
func (r *Runner) Run(mix workload.Mix, ops int) (Result, error) {
	readsBefore := r.DB.SSTReads()
	hitsBefore := r.DB.LSM().QueryBlockHits()
	start := time.Now()
	counts, err := r.drive(mix, ops)
	if err != nil {
		return Result{}, err
	}
	wall := time.Since(start)
	reads := r.DB.SSTReads() - readsBefore
	hits := r.DB.LSM().QueryBlockHits() - hitsBefore

	w := stats.Window{
		Points:     counts.points,
		Scans:      counts.scans,
		Writes:     counts.writes,
		ScanLenSum: counts.scanLen,
		BlockReads: reads,
	}
	sim := wall + time.Duration(reads)*readCost
	res := Result{
		Strategy:   r.DB.Strategy().String(),
		Ops:        int64(ops),
		Points:     counts.points,
		Scans:      counts.scans,
		Writes:     counts.writes,
		ScanLenSum: counts.scanLen,
		BlockReads: reads,
		BlockHits:  hits,
		HitRate:    r.Shape().HitRateEstimate(w),
		Wall:       wall,
		Sim:        sim,
	}
	if sim > 0 {
		res.QPS = float64(ops) / sim.Seconds()
	}
	return res, nil
}

type opCounts struct {
	points, scans, writes, scanLen int64
}

func (r *Runner) drive(mix workload.Mix, ops int) (opCounts, error) {
	c, err := driveWith(r.DB, r.Gen, mix, ops)
	if err != nil {
		return c, fmt.Errorf("drive: %w", err)
	}
	return c, nil
}
