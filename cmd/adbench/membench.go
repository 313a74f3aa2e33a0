package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"adcache"
	"adcache/internal/core"
	"adcache/internal/lsm"
	"adcache/internal/workload"
)

// Simulated-time I/O model for the memory benchmark. Runs use
// InlineCompaction + SyncTuning so the operation stream is deterministic;
// throughput is then scored in simulated time rather than wall time, making
// the committed artifact machine-speed independent: every SST block a query
// reads costs memReadCostNs, every byte of flush/compaction I/O costs the
// same per-byte rate (read+write charged separately via the engine's
// cumulative counters), and every operation pays a fixed CPU cost.
const (
	memReadCostNs = 100_000 // one 4 KiB SST block read (SSD-class)
	memOpCostNs   = 2_000   // per-operation CPU cost floor
)

// memPhaseRow is one (configuration, phase) cell in BENCH_MEMORY.json.
type memPhaseRow struct {
	Phase string `json:"phase"`
	Ops   int    `json:"ops"`
	// SimQPS is ops / simulated phase time (see the cost model above).
	SimQPS float64 `json:"sim_qps"`
	// QueryBlockReads and BgIOBytes are the phase's deltas of the two
	// simulated cost drivers.
	QueryBlockReads int64 `json:"query_block_reads"`
	BgIOBytes       int64 `json:"bg_io_bytes"`
	// GetP99SimNs is the 99th-percentile simulated per-Get cost (point
	// lookups only; 0 in phases that issue no gets).
	GetP99SimNs int64 `json:"get_p99_sim_ns"`
	// MemRatio and the budget ledger at phase end show where the arbiter
	// (or the static split) has the memory parked.
	MemRatio float64       `json:"mem_ratio"`
	Budgets  []core.Budget `json:"budgets,omitempty"`
}

// memConfigRow is one configuration's full run.
type memConfigRow struct {
	Name string `json:"name"`
	// Unified marks the RL-arbitrated configuration; static rows pin
	// MemFrac of the budget in the memtable and hand the rest to the
	// (non-arbitrating) adaptive cache.
	Unified bool          `json:"unified"`
	MemFrac float64       `json:"mem_frac,omitempty"`
	Phases  []memPhaseRow `json:"phases"`
	// AggregateSimQPS is total ops / total simulated time across phases —
	// the headline comparison metric.
	AggregateSimQPS float64 `json:"aggregate_sim_qps"`
	WriteAmp        float64 `json:"write_amp"`
	Errors          int     `json:"errors"`
}

// memBenchReport is the BENCH_MEMORY.json schema.
type memBenchReport struct {
	GeneratedAt string         `json:"generated_at"`
	GoVersion   string         `json:"go_version"`
	Keys        int            `json:"keys"`
	ValueSize   int            `json:"value_size"`
	OpsPerPhase int            `json:"ops_per_phase"`
	BudgetBytes int64          `json:"budget_bytes"`
	ReadCostNs  int64          `json:"read_cost_ns"`
	OpCostNs    int64          `json:"op_cost_ns"`
	Rows        []memConfigRow `json:"rows"`
	// Gate results (enforced at artifact scale, ops_per_phase >= 20000).
	UnifiedAggregateSimQPS float64 `json:"unified_aggregate_sim_qps"`
	BestStaticSimQPS       float64 `json:"best_static_sim_qps"`
	BestStaticName         string  `json:"best_static_name"`
	SpeedupVsBestStatic    float64 `json:"speedup_vs_best_static"`
	UnifiedReadP99SimNs    int64   `json:"unified_read_p99_sim_ns"`
	BestStaticReadP99SimNs int64   `json:"best_static_read_p99_sim_ns"`
	GatesEnforced          bool    `json:"gates_enforced"`
}

// memBgIOBytes sums the engine's cumulative background I/O: bytes written
// by flushes, read by compactions, and written by compactions.
func memBgIOBytes(m lsm.Metrics) int64 {
	return m.FlushedBytes + m.CompactedBytes + m.CompactionOutBytes
}

// runMemCase drives the three-phase schedule against one configuration.
// budget is the total memory budget B; for the unified row the arbiter
// moves B across memtables and caches, for static rows memFrac*B is pinned
// in the memtable and (1-memFrac)*B given to the caches.
func runMemCase(name string, unified bool, memFrac float64, keys, valueSize, opsPerPhase int, budget int64) (memConfigRow, error) {
	row := memConfigRow{Name: name, Unified: unified, MemFrac: memFrac}

	lsmOpts := lsm.DefaultOptions("")
	lsmOpts.InlineCompaction = true
	lsmOpts.TargetFileSize = 1 << 20
	cfg := core.Config{SyncTuning: true, MemtableArbitration: unified}
	cacheBytes := budget
	if unified {
		// The arbiter owns the whole budget; the static threshold is
		// irrelevant once Bind pushes the first allocation.
		lsmOpts.MemTableSize = budget / 4
	} else {
		mem := int64(float64(budget) * memFrac)
		lsmOpts.MemTableSize = mem
		cacheBytes = budget - mem
	}

	db, err := adcache.Open(adcache.Options{
		CacheBytes: cacheBytes,
		Strategy:   adcache.StrategyAdCache,
		AdCache:    cfg,
		LSM:        &lsmOpts,
	})
	if err != nil {
		return row, err
	}
	defer db.Close()

	gen := workload.NewGenerator(workload.Config{NumKeys: keys, ValueSize: valueSize, Seed: 1})
	for i := 0; i < keys; i++ {
		if err := db.Put(workload.Key(i), gen.InitialValue(i)); err != nil {
			return row, err
		}
	}
	if err := db.Flush(); err != nil {
		return row, err
	}

	sched := workload.NewSchedule(gen, workload.MemoryPhases(), opsPerPhase)
	var (
		cur       memPhaseRow
		getCosts  []int64
		baseReads = db.SSTReads()
		baseBg    = memBgIOBytes(db.LSM().Metrics())
	)
	flush := func() {
		if cur.Ops == 0 {
			return
		}
		reads := db.SSTReads()
		bg := memBgIOBytes(db.LSM().Metrics())
		cur.QueryBlockReads = reads - baseReads
		cur.BgIOBytes = bg - baseBg
		baseReads, baseBg = reads, bg
		simNs := cur.QueryBlockReads*memReadCostNs +
			cur.BgIOBytes*memReadCostNs/int64(db.LSM().ShapeInfo().BlockSize) +
			int64(cur.Ops)*memOpCostNs
		cur.SimQPS = float64(cur.Ops) / (float64(simNs) / 1e9)
		if len(getCosts) > 0 {
			sort.Slice(getCosts, func(i, j int) bool { return getCosts[i] < getCosts[j] })
			cur.GetP99SimNs = getCosts[(len(getCosts)-1)*99/100]
		}
		m := db.Metrics()
		if m.AdCache != nil {
			cur.MemRatio = m.AdCache.Params.MemRatio
			cur.Budgets = m.AdCache.Budgets
		}
		row.Phases = append(row.Phases, cur)
	}
	for {
		op, phase, ok := sched.Next()
		if !ok {
			break
		}
		if cur.Phase != phase.Name {
			flush()
			cur = memPhaseRow{Phase: phase.Name}
			getCosts = getCosts[:0]
		}
		cur.Ops++
		switch op.Kind {
		case workload.OpGet:
			before := db.SSTReads()
			_, _, err = db.Get(op.Key)
			getCosts = append(getCosts, memOpCostNs+(db.SSTReads()-before)*memReadCostNs)
		case workload.OpScan:
			_, err = db.Scan(op.Key, op.ScanLen)
		default:
			err = db.Put(op.Key, op.Value)
		}
		if err != nil {
			row.Errors++
			err = nil
		}
	}
	flush()

	var totalOps int
	var totalSimNs float64
	for _, p := range row.Phases {
		totalOps += p.Ops
		totalSimNs += float64(p.Ops) / p.SimQPS * 1e9
	}
	if totalSimNs > 0 {
		row.AggregateSimQPS = float64(totalOps) / (totalSimNs / 1e9)
	}
	row.WriteAmp = db.Metrics().Engine.WriteAmplification()
	return row, nil
}

// phaseP99 extracts a configuration's read-heavy-phase Get p99.
func phaseP99(row memConfigRow, phase string) int64 {
	for _, p := range row.Phases {
		if p.Phase == phase {
			return p.GetP99SimNs
		}
	}
	return 0
}

// runMemBench runs the unified-memory experiment: the RL-arbitrated
// configuration against a grid of static memtable/cache splits of the same
// total budget, on the write-heavy → read-heavy → scan-heavy schedule.
// At artifact scale (>= 20000 ops/phase) it hard-fails unless unified beats
// every static split on aggregate simulated-time throughput with read-heavy
// Get p99 no worse than the best static split (5% tolerance) and zero
// errors; below that scale (CI smoke) only the zero-error gate applies.
func runMemBench(keys, valueSize, opsPerPhase int, asJSON bool, outPath string) error {
	if keys <= 0 {
		keys = 30_000
	}
	if valueSize <= 0 {
		valueSize = 400
	}
	if opsPerPhase <= 0 {
		opsPerPhase = 25_000
	}
	budget := int64(keys) * int64(valueSize) / 2

	report := memBenchReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		Keys:        keys,
		ValueSize:   valueSize,
		OpsPerPhase: opsPerPhase,
		BudgetBytes: budget,
		ReadCostNs:  memReadCostNs,
		OpCostNs:    memOpCostNs,
	}

	cases := []struct {
		name    string
		unified bool
		frac    float64
	}{
		{"unified", true, 0},
		{"static-mem05", false, 0.05},
		{"static-mem15", false, 0.15},
		{"static-mem30", false, 0.30},
		{"static-mem50", false, 0.50},
	}
	for _, c := range cases {
		start := time.Now()
		row, err := runMemCase(c.name, c.unified, c.frac, keys, valueSize, opsPerPhase, budget)
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		report.Rows = append(report.Rows, row)
		fmt.Fprintf(os.Stderr, "  %-14s agg %9.0f sim-qps  wa %.2f  errors %d  (%s)\n",
			row.Name, row.AggregateSimQPS, row.WriteAmp, row.Errors, time.Since(start).Round(time.Millisecond))
		for _, p := range row.Phases {
			fmt.Fprintf(os.Stderr, "      %-12s %9.0f sim-qps  reads %8d  bgMiB %7.1f  getP99 %7.2fms  mem %.2f\n",
				p.Phase, p.SimQPS, p.QueryBlockReads, float64(p.BgIOBytes)/(1<<20),
				float64(p.GetP99SimNs)/1e6, p.MemRatio)
		}
	}

	unified := report.Rows[0]
	report.UnifiedAggregateSimQPS = unified.AggregateSimQPS
	report.UnifiedReadP99SimNs = phaseP99(unified, "read-heavy")
	var errors int
	for _, r := range report.Rows {
		errors += r.Errors
	}
	for _, r := range report.Rows[1:] {
		if r.AggregateSimQPS > report.BestStaticSimQPS {
			report.BestStaticSimQPS = r.AggregateSimQPS
			report.BestStaticName = r.Name
		}
		p99 := phaseP99(r, "read-heavy")
		if report.BestStaticReadP99SimNs == 0 || p99 < report.BestStaticReadP99SimNs {
			report.BestStaticReadP99SimNs = p99
		}
	}
	if report.BestStaticSimQPS > 0 {
		report.SpeedupVsBestStatic = report.UnifiedAggregateSimQPS / report.BestStaticSimQPS
	}
	report.GatesEnforced = opsPerPhase >= 20_000

	fmt.Fprintf(os.Stderr, "  unified %.0f vs best static %.0f (%s): %.2fx  p99 %0.2fms vs %0.2fms  errors %d\n",
		report.UnifiedAggregateSimQPS, report.BestStaticSimQPS, report.BestStaticName,
		report.SpeedupVsBestStatic,
		float64(report.UnifiedReadP99SimNs)/1e6, float64(report.BestStaticReadP99SimNs)/1e6, errors)

	if asJSON {
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(outPath, buf, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", outPath)
	}

	if errors > 0 {
		return fmt.Errorf("%d operation errors", errors)
	}
	if report.GatesEnforced {
		for _, r := range report.Rows[1:] {
			if report.UnifiedAggregateSimQPS <= r.AggregateSimQPS {
				return fmt.Errorf("unified aggregate sim-qps %.0f does not beat %s (%.0f)",
					report.UnifiedAggregateSimQPS, r.Name, r.AggregateSimQPS)
			}
		}
		if float64(report.UnifiedReadP99SimNs) > float64(report.BestStaticReadP99SimNs)*1.05 {
			return fmt.Errorf("unified read-heavy get p99 %dns worse than best static %dns (+5%% tolerance)",
				report.UnifiedReadP99SimNs, report.BestStaticReadP99SimNs)
		}
	}
	return nil
}
