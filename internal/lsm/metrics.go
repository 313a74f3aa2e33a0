package lsm

import (
	"fmt"

	"adcache/internal/metrics"
)

// dbMetrics holds the engine's registry cells: the hot-path histograms and
// every cumulative counter. A cell is the count's only home — the owner
// increments it where the event happens, Metrics() and WriteSideInfo() read
// it, /metrics renders it. Latencies are recorded in nanoseconds (the
// `_nanos` suffix drives duration formatting in summary tables);
// write-group size is a plain magnitude.
type dbMetrics struct {
	getNanos        *metrics.Histogram
	scanNanos       *metrics.Histogram
	commitNanos     *metrics.Histogram
	commitWait      *metrics.Histogram
	stallNanos      *metrics.Histogram
	flushNanos      *metrics.Histogram
	compactNanos    *metrics.Histogram
	subcompactNanos *metrics.Histogram
	writeGroupOps   *metrics.Histogram

	flushes, compactions, subcompactions *metrics.Counter
	stallSlowdowns, stallStops           *metrics.Counter
	writeGroups                          *metrics.Counter
	flushedBytes, userBytes              *metrics.Counter
	compactedBytes, compactionOut        *metrics.Counter // compaction input / output bytes
	bgRetries, resumes, walRemoveErrors  *metrics.Counter
	bgIOStallNanos                       *metrics.Counter
	// queryBlockReads/Hits count block reads and block-cache hits
	// attributable to Get/Scan only, excluding flush/compaction/recovery
	// I/O — the paper's "SST reads" metric.
	queryBlockReads, queryBlockHits *metrics.Counter
	// lazySkippedRuns counts sorted runs a scan or iterator positioned
	// without ever opening: the merge never reached them.
	lazySkippedRuns *metrics.Counter
	// staleSkippedPoints/Scans count disk-served results that were returned
	// to their caller but withheld from the result cache, because a write
	// touched their key span between the read's snapshot and its admission.
	staleSkippedPoints, staleSkippedScans *metrics.Counter
	// levelCompactIn[l] / levelCompactOut[l] are the compaction input bytes
	// drawn from level l and the output bytes written into it.
	levelCompactIn, levelCompactOut []*metrics.Counter
}

const staleHelp = "disk-served results withheld from the result cache: a write reached their key span during the read"

// counterSeries is the engine's struct→series table for counted values:
// the cell, the series it is registered as, and the Metrics field that
// reads it (nil where the count has its own accessor instead).
var counterSeries = []struct {
	name, help string
	cell       func(*dbMetrics) **metrics.Counter
	field      func(*Metrics) *int64
}{
	{"lsm_flushes_total", "memtable flushes", func(c *dbMetrics) **metrics.Counter { return &c.flushes }, func(m *Metrics) *int64 { return &m.Flushes }},
	{"lsm_compactions_total", "compactions run", func(c *dbMetrics) **metrics.Counter { return &c.compactions }, func(m *Metrics) *int64 { return &m.Compactions }},
	{"lsm_subcompactions_total", "subcompaction shard merges executed", func(c *dbMetrics) **metrics.Counter { return &c.subcompactions }, func(m *Metrics) *int64 { return &m.Subcompactions }},
	{"lsm_stall_slowdowns_total", "write slowdown stalls", func(c *dbMetrics) **metrics.Counter { return &c.stallSlowdowns }, func(m *Metrics) *int64 { return &m.StallSlowdowns }},
	{"lsm_stall_stops_total", "write stop stalls", func(c *dbMetrics) **metrics.Counter { return &c.stallStops }, func(m *Metrics) *int64 { return &m.StallStops }},
	{"lsm_write_groups_total", "write groups committed", func(c *dbMetrics) **metrics.Counter { return &c.writeGroups }, func(m *Metrics) *int64 { return &m.WriteGroups }},
	{"lsm_flushed_bytes_total", "bytes written by flushes", func(c *dbMetrics) **metrics.Counter { return &c.flushedBytes }, func(m *Metrics) *int64 { return &m.FlushedBytes }},
	{"lsm_compacted_bytes_total", "bytes read as compaction inputs", func(c *dbMetrics) **metrics.Counter { return &c.compactedBytes }, func(m *Metrics) *int64 { return &m.CompactedBytes }},
	{"lsm_compaction_out_bytes_total", "bytes written as compaction outputs", func(c *dbMetrics) **metrics.Counter { return &c.compactionOut }, func(m *Metrics) *int64 { return &m.CompactionOutBytes }},
	{"lsm_user_bytes_total", "user key+value bytes accepted", func(c *dbMetrics) **metrics.Counter { return &c.userBytes }, func(m *Metrics) *int64 { return &m.UserBytes }},
	{"lsm_bg_retries_total", "background flush/compaction retry attempts", func(c *dbMetrics) **metrics.Counter { return &c.bgRetries }, func(m *Metrics) *int64 { return &m.BgRetries }},
	{"lsm_resumes_total", "recoveries from read-only degraded mode", func(c *dbMetrics) **metrics.Counter { return &c.resumes }, func(m *Metrics) *int64 { return &m.Resumes }},
	{"lsm_wal_remove_errors_total", "non-fatal failures deleting retired WAL files", func(c *dbMetrics) **metrics.Counter { return &c.walRemoveErrors }, func(m *Metrics) *int64 { return &m.WALRemoveErrors }},
	{"lsm_bg_io_stall_nanos_total", "time background writers spent throttled by the I/O rate limit", func(c *dbMetrics) **metrics.Counter { return &c.bgIOStallNanos }, func(m *Metrics) *int64 { return &m.BgIOStallNanos }},
	{"lsm_scan_lazy_skipped_runs_total", "sorted runs scans positioned but never had to open", func(c *dbMetrics) **metrics.Counter { return &c.lazySkippedRuns }, func(m *Metrics) *int64 { return &m.ScanLazySkippedRuns }},
	{`lsm_admissions_skipped_stale_total{op="point"}`, staleHelp, func(c *dbMetrics) **metrics.Counter { return &c.staleSkippedPoints }, func(m *Metrics) *int64 { return &m.AdmissionsSkippedStalePoint }},
	{`lsm_admissions_skipped_stale_total{op="scan"}`, staleHelp, func(c *dbMetrics) **metrics.Counter { return &c.staleSkippedScans }, func(m *Metrics) *int64 { return &m.AdmissionsSkippedStaleScan }},
	{"lsm_query_block_reads_total", "SST blocks read from disk by queries (the paper's SST-reads metric)", func(c *dbMetrics) **metrics.Counter { return &c.queryBlockReads }, nil},
	{"lsm_query_block_hits_total", "block-cache hits on the query path", func(c *dbMetrics) **metrics.Counter { return &c.queryBlockHits }, nil},
}

// sampledSeries is the other half of the table: what the engine's one
// collector emits from one Metrics snapshot per scrape — the gauges, and
// the two counters whose home is the file system's own I/O accounting.
var sampledSeries = []struct {
	name, help string
	counter    bool
	get        func(*Metrics) float64
}{
	{"lsm_sst_read_calls_total", "device read calls issued by table readers (a call may carry several blocks)", true, func(m *Metrics) float64 { return float64(m.SSTReadCalls) }},
	{"lsm_sst_read_bytes_total", "bytes read from the device by table readers", true, func(m *Metrics) float64 { return float64(m.SSTReadBytes) }},
	{"lsm_memtable_bytes", "active memtable size", false, func(m *Metrics) float64 { return float64(m.MemTableBytes) }},
	{"lsm_imm_memtables", "sealed memtables awaiting flush", false, func(m *Metrics) float64 { return float64(m.ImmMemTables) }},
	{"lsm_imm_memtable_bytes", "bytes pinned by sealed memtables awaiting flush", false, func(m *Metrics) float64 { return float64(m.ImmMemTableBytes) }},
	{"lsm_memtable_budget_bytes", "dynamic unified-memory memtable budget (0 = static sizing)", false, func(m *Metrics) float64 { return float64(m.MemTableBudget) }},
	{"lsm_memtable_target_bytes", "flush threshold currently in force for the active memtable", false, func(m *Metrics) float64 { return float64(m.MemTableTarget) }},
	{"lsm_sorted_runs", "sorted runs in the tree", false, func(m *Metrics) float64 { return float64(m.SortedRuns) }},
	{"lsm_total_entries", "entries across all SSTables", false, func(m *Metrics) float64 { return float64(m.TotalEntries) }},
	{"lsm_total_bytes", "bytes across all SSTables", false, func(m *Metrics) float64 { return float64(m.TotalBytes) }},
	{"lsm_write_amplification", "SSTable bytes written per user byte", false, func(m *Metrics) float64 { return m.WriteAmplification() }},
	{"lsm_bg_state", "error-handler mode (0 healthy, 1 retrying, 2 read-only)", false, func(m *Metrics) float64 { return float64(m.bgStateNum) }},
}

// registerMetrics creates the engine's cells on reg and registers its one
// collector. Called once from Open. The collector takes d.mu (through
// Metrics), so a gather must only run outside engine callbacks — an HTTP
// scrape or a tool dump, which is the only way the registry is exposed.
func (d *DB) registerMetrics(reg *metrics.Registry) {
	d.metrics = dbMetrics{
		getNanos:        reg.Histogram("lsm_get_nanos", "point-lookup latency"),
		scanNanos:       reg.Histogram("lsm_scan_nanos", "range-scan latency"),
		commitNanos:     reg.Histogram("lsm_commit_nanos", "write commit latency including group wait"),
		commitWait:      reg.Histogram("lsm_commit_wait_nanos", "time spent waiting to join or lead a write group"),
		stallNanos:      reg.Histogram("lsm_stall_nanos", "write-stall time per stalled commit (backpressure)"),
		flushNanos:      reg.Histogram("lsm_flush_nanos", "memtable flush duration"),
		compactNanos:    reg.Histogram("lsm_compact_nanos", "compaction duration"),
		subcompactNanos: reg.Histogram("lsm_subcompact_nanos", "per-subcompaction shard merge duration"),
		writeGroupOps:   reg.Histogram("lsm_write_group_ops", "operations coalesced per write group"),
	}
	for _, s := range counterSeries {
		*s.cell(&d.metrics) = reg.Counter(s.name, s.help)
	}
	for l := 0; l < numLevels; l++ {
		// Per-level write-amplification counters: input bytes drawn from the
		// level vs output bytes written into it by compactions.
		d.metrics.levelCompactIn = append(d.metrics.levelCompactIn,
			reg.Counter(levelSeries("lsm_compaction_input_bytes_total", l), "compaction input bytes read from this level"))
		d.metrics.levelCompactOut = append(d.metrics.levelCompactOut,
			reg.Counter(levelSeries("lsm_compaction_output_bytes_total", l), "compaction output bytes written into this level"))
	}
	reg.Collect(func(s *metrics.Sink) {
		m := d.Metrics()
		for _, r := range sampledSeries {
			if r.counter {
				s.Counter(r.name, r.help, int64(r.get(&m)))
			} else {
				s.Gauge(r.name, r.help, r.get(&m))
			}
		}
		for l := range m.LevelFiles {
			s.Gauge(levelSeries("lsm_level_files", l), "SSTable files per level", float64(m.LevelFiles[l]))
			s.Gauge(levelSeries("lsm_level_bytes", l), "SSTable bytes per level", float64(m.LevelBytes[l]))
		}
	})
}

func levelSeries(name string, level int) string {
	return fmt.Sprintf("%s{level=\"%d\"}", name, level)
}
