package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"adcache/internal/core"
	"adcache/internal/lsm"
	"adcache/internal/vfs"
)

// diskBenchRow is one codec's measurements in BENCH_DISK.json.
type diskBenchRow struct {
	Compression string `json:"compression"`

	// Physical footprint after flush+compact.
	SSTBytes     int64 `json:"sst_bytes"`
	OnDiskBytes  int64 `json:"on_disk_bytes"`
	SSTableCount int   `json:"sstable_count"`

	// Read experiment: uniform random gets against a cache smaller than the
	// working set.
	ReadOps        int     `json:"read_ops"`
	ReadNsPerOp    float64 `json:"read_ns_per_op"`
	CacheHitRate   float64 `json:"cache_hit_rate"`
	SSTReads       int64   `json:"sst_reads"`
	CacheCapacity  int64   `json:"cache_capacity_bytes"`
	CachePhysical  int64   `json:"cache_physical_bytes"`
	CacheLogical   int64   `json:"cache_logical_bytes"`
	BgIOStallNanos int64   `json:"bg_io_stall_nanos"`
}

// diskBenchReport is the BENCH_DISK.json schema: the same workload on a real
// directory through OSFS, once per codec, so the compression ratio and the
// physical-byte cache charging are reviewable in diffs.
type diskBenchReport struct {
	GeneratedAt   string         `json:"generated_at"`
	GoVersion     string         `json:"go_version"`
	Keys          int            `json:"keys"`
	ValueSize     int            `json:"value_size"`
	Rows          []diskBenchRow `json:"rows"`
	DiskReduction float64        `json:"disk_reduction"`  // 1 - flate/none on-disk bytes
	HitRateUplift float64        `json:"hit_rate_uplift"` // flate - none hit rate
	CacheInBudget bool           `json:"cache_in_budget"` // physical bytes <= capacity, both codecs
	BudgetStretch float64        `json:"budget_stretch"`  // flate logical/physical cached bytes
}

// diskValue is a semi-compressible 256-byte value: structured fields plus an
// incompressible random payload, the shape real records have. Fully random
// values would defeat any codec; fully repetitive ones would flatter it.
func diskKey(i int) []byte { return []byte(fmt.Sprintf("key%08d", i)) }

func diskValue(i int, rng *rand.Rand) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "user%08d;status=active;region=us-east-1;counter=%012d;payload=", i, i*7)
	random := make([]byte, 48)
	rng.Read(random)
	b.Write(random)
	for b.Len() < 256 {
		b.WriteString("........")
	}
	return b.Bytes()[:256]
}

// dirBytes sums the sizes of every file in dir on the real file system.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}

// runDiskCase builds a store on a real directory with the given codec,
// then runs the uniform-read experiment against a cache that cannot hold the
// working set.
func runDiskCase(n int, compression lsm.Compression) (diskBenchRow, error) {
	row := diskBenchRow{Compression: compression.String()}
	dir, err := os.MkdirTemp("", "adbench-disk-*")
	if err != nil {
		return row, err
	}
	defer os.RemoveAll(dir)
	dbDir := filepath.Join(dir, "db")

	const cacheBytes = 4 << 20
	strategy := core.NewBlockOnly(cacheBytes)
	opts := lsm.DefaultOptions(dbDir)
	opts.FS = vfs.NewOS()
	opts.Strategy = strategy
	opts.Compression = compression
	opts.MemTableSize = 4 << 20
	opts.TargetFileSize = 2 << 20
	opts.InlineCompaction = true
	opts.BgIOBytesPerSec = 256 << 20 // generous: observable stall counter, negligible slowdown
	db, err := lsm.Open(opts)
	if err != nil {
		return row, err
	}
	defer db.Close()

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		if err := db.Put(diskKey(i), diskValue(i, rng)); err != nil {
			return row, err
		}
	}
	if err := db.Flush(); err != nil {
		return row, err
	}
	if err := db.Compact(); err != nil {
		return row, err
	}

	m := db.Metrics()
	row.SSTBytes = int64(m.TotalBytes)
	row.SSTableCount = m.SortedRuns
	row.BgIOStallNanos = m.BgIOStallNanos
	if row.OnDiskBytes, err = dirBytes(dbDir); err != nil {
		return row, err
	}

	// Read experiment: uniform gets over the whole keyspace. The fixed cache
	// budget holds a larger fraction of the (physically charged) compressed
	// blocks, so the codec's hit-rate effect is directly visible.
	readRng := rand.New(rand.NewSource(11))
	ops := n
	start := time.Now()
	for i := 0; i < ops; i++ {
		if _, ok, err := db.Get(diskKey(readRng.Intn(n))); err != nil || !ok {
			return row, fmt.Errorf("get failed: ok=%v err=%v", ok, err)
		}
	}
	elapsed := time.Since(start)

	c := strategy.Counters()
	row.ReadOps = ops
	row.ReadNsPerOp = float64(elapsed.Nanoseconds()) / float64(ops)
	if total := c.BlockHits + c.BlockMisses; total > 0 {
		row.CacheHitRate = float64(c.BlockHits) / float64(total)
	}
	row.SSTReads = db.QueryBlockReads()
	row.CacheCapacity = c.BlockCapacity
	row.CachePhysical = c.BlockUsed
	row.CacheLogical = c.BlockLogicalUsed
	return row, nil
}

// runDiskBench runs the on-disk experiment for both codecs and prints a
// table or writes BENCH_DISK.json.
func runDiskBench(n int, asJSON bool, outPath string) error {
	report := diskBenchReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		Keys:        n,
		ValueSize:   256,
	}
	var none, flate diskBenchRow
	var err error
	if none, err = runDiskCase(n, lsm.CompressionNone); err != nil {
		return fmt.Errorf("none: %w", err)
	}
	if flate, err = runDiskCase(n, lsm.CompressionFlate); err != nil {
		return fmt.Errorf("flate: %w", err)
	}
	report.Rows = []diskBenchRow{none, flate}
	if none.OnDiskBytes > 0 {
		report.DiskReduction = 1 - float64(flate.OnDiskBytes)/float64(none.OnDiskBytes)
	}
	report.HitRateUplift = flate.CacheHitRate - none.CacheHitRate
	report.CacheInBudget = none.CachePhysical <= none.CacheCapacity &&
		flate.CachePhysical <= flate.CacheCapacity
	if flate.CachePhysical > 0 {
		report.BudgetStretch = float64(flate.CacheLogical) / float64(flate.CachePhysical)
	}

	for _, r := range report.Rows {
		fmt.Fprintf(os.Stderr,
			"  %-6s %8.1f MiB on disk  %8.1f MiB sst  hit %.3f  %10.1f ns/get  cache %5.1f/%5.1f MiB phys (%.1f MiB logical)\n",
			r.Compression,
			float64(r.OnDiskBytes)/(1<<20), float64(r.SSTBytes)/(1<<20),
			r.CacheHitRate, r.ReadNsPerOp,
			float64(r.CachePhysical)/(1<<20), float64(r.CacheCapacity)/(1<<20),
			float64(r.CacheLogical)/(1<<20))
	}
	fmt.Fprintf(os.Stderr, "  disk reduction %.1f%%  hit-rate uplift %+.3f  budget stretch %.2fx  in budget: %v\n",
		report.DiskReduction*100, report.HitRateUplift, report.BudgetStretch, report.CacheInBudget)

	if report.DiskReduction < 0.25 {
		return fmt.Errorf("flate reduced on-disk bytes by only %.1f%% (< 25%%)", report.DiskReduction*100)
	}
	if !report.CacheInBudget {
		return fmt.Errorf("block cache exceeded its physical byte budget")
	}

	if !asJSON {
		return nil
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(outPath, buf, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", outPath)
	return nil
}
