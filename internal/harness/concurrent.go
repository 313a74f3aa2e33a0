package harness

import (
	"runtime"
	"sync"
	"time"

	"adcache"
	"adcache/internal/stats"
	"adcache/internal/workload"
)

// RunConcurrent drives clients goroutines, each executing opsPerClient
// operations from its own deterministic generator, and returns aggregate
// measurements plus the per-client QPS under the simulated-I/O model.
//
// The simulated time assumes the device serves the clients' block reads in
// parallel (the paper's NVMe testbed is I/O-throughput-bound, not
// queue-depth-bound at 32 clients), so per-client simulated time is the
// client's wall time plus its own share of read latency.
func (r *Runner) RunConcurrent(mix workload.Mix, opsPerClient, clients int) (Result, float64, error) {
	readsBefore := r.DB.SSTReads()
	hitsBefore := r.DB.LSM().QueryBlockHits()

	var wg sync.WaitGroup
	counts := make([]opCounts, clients)
	errs := make([]error, clients)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			gen := workload.NewGenerator(workload.Config{
				NumKeys:   r.Cfg.NumKeys,
				ValueSize: r.Cfg.ValueSize,
				PointSkew: r.Cfg.PointSkew,
				ScanSkew:  r.Cfg.ScanSkew,
				Seed:      r.Cfg.Seed + int64(c)*7919,
			})
			counts[c], errs[c] = driveWith(r.DB, gen, mix, opsPerClient)
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return Result{}, 0, err
		}
	}

	var total opCounts
	for _, c := range counts {
		total.points += c.points
		total.scans += c.scans
		total.writes += c.writes
		total.scanLen += c.scanLen
	}
	reads := r.DB.SSTReads() - readsBefore
	hits := r.DB.LSM().QueryBlockHits() - hitsBefore
	ops := int64(opsPerClient * clients)

	w := stats.Window{
		Points: total.points, Scans: total.scans, Writes: total.writes,
		ScanLenSum: total.scanLen, BlockReads: reads,
	}
	// Per-client simulated time. The paper's 36-core testbed gives every
	// client a core, so per-client time = per-op CPU + per-op I/O wait.
	// This host has fewer cores than clients, so raw wall time would
	// conflate scheduler contention with the effect under test (training
	// interference, lock contention). Normalise: per-op CPU cost is the
	// measured CPU time (wall × active cores) divided across all ops —
	// contention inside the engine still shows up in it.
	activeCores := clients
	if p := runtime.GOMAXPROCS(0); activeCores > p {
		activeCores = p
	}
	cpuPerOp := wall * time.Duration(activeCores) / time.Duration(ops)
	ioPerOp := time.Duration(reads) * readCost / time.Duration(ops)
	perClientSim := time.Duration(opsPerClient) * (cpuPerOp + ioPerOp)
	res := Result{
		Strategy:   r.DB.Strategy().String(),
		Ops:        ops,
		Points:     total.points,
		Scans:      total.scans,
		Writes:     total.writes,
		ScanLenSum: total.scanLen,
		BlockReads: reads,
		BlockHits:  hits,
		HitRate:    r.Shape().HitRateEstimate(w),
		Wall:       wall,
		Sim:        perClientSim,
	}
	perClientQPS := 0.0
	if perClientSim > 0 {
		perClientQPS = float64(opsPerClient) / perClientSim.Seconds()
		res.QPS = perClientQPS * float64(clients)
	}
	return res, perClientQPS, nil
}

// driveWith executes ops from gen against db (used by concurrent clients).
func driveWith(db *adcache.DB, gen *workload.Generator, mix workload.Mix, ops int) (opCounts, error) {
	var c opCounts
	for i := 0; i < ops; i++ {
		op := gen.Next(mix)
		switch op.Kind {
		case workload.OpGet:
			c.points++
			if _, _, err := db.Get(op.Key); err != nil {
				return c, err
			}
		case workload.OpScan:
			c.scans++
			c.scanLen += int64(op.ScanLen)
			if _, err := db.Scan(op.Key, op.ScanLen); err != nil {
				return c, err
			}
		case workload.OpPut:
			c.writes++
			if err := db.Put(op.Key, op.Value); err != nil {
				return c, err
			}
		}
	}
	return c, nil
}
