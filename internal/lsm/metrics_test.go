package lsm

import (
	"strings"
	"testing"

	"adcache/internal/metrics"
	"adcache/internal/vfs"
)

// TestMetricsEnginePopulated drives enough traffic to flush and asserts the
// engine's latency histograms and shape gauges carry real observations.
func TestMetricsEnginePopulated(t *testing.T) {
	reg := metrics.NewRegistry()
	opts := testOptions(vfs.NewMem())
	opts.MetricsRegistry = reg
	db := mustOpen(t, opts)
	defer db.Close()

	const n = 2000
	for i := 0; i < n; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, ok, err := db.Get(key(i)); err != nil || !ok {
			t.Fatalf("Get(%s): ok=%v err=%v", key(i), ok, err)
		}
	}
	if _, err := db.Scan(key(0), 50); err != nil {
		t.Fatal(err)
	}

	hists := make(map[string]metrics.HistogramSnapshot)
	reg.EachHistogram(func(name string, s metrics.HistogramSnapshot) { hists[name] = s })
	if s := hists["lsm_get_nanos"]; s.Count != 200 {
		t.Errorf("lsm_get_nanos count = %d, want 200", s.Count)
	}
	if s := hists["lsm_scan_nanos"]; s.Count != 1 {
		t.Errorf("lsm_scan_nanos count = %d, want 1", s.Count)
	}
	if s := hists["lsm_commit_nanos"]; s.Count != n {
		t.Errorf("lsm_commit_nanos count = %d, want %d", s.Count, n)
	}
	if s := hists["lsm_flush_nanos"]; s.Count == 0 || s.Sum <= 0 {
		t.Errorf("lsm_flush_nanos = %+v, want observations", s)
	}
	if s := hists["lsm_write_group_ops"]; s.Count != n || s.Sum != n {
		t.Errorf("lsm_write_group_ops = %+v, want count=sum=%d", s, n)
	}

	// Every series equals the Metrics field the table pairs it with; these
	// are the ones this traffic must also have moved.
	m := checkAgreement(t, reg, db)
	if m.Flushes == 0 || m.UserBytes == 0 || m.SSTReadCalls == 0 || m.SSTReadBytes < 4096 {
		t.Errorf("flush, user-byte or device-read counters did not move: %+v", m)
	}
	// No write overlapped a read above: nothing was withheld from the cache.
	if m.AdmissionsSkippedStalePoint != 0 || m.AdmissionsSkippedStaleScan != 0 {
		t.Errorf("stale admissions skipped on serial traffic: %+v", m)
	}
	snap := reg.Snapshot()
	if got := snap[`lsm_level_files{level="0"}`]; got == nil {
		t.Error("per-level gauge lsm_level_files{level=\"0\"} missing")
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE lsm_get_nanos summary",
		`lsm_get_nanos{quantile="0.99"}`,
		"lsm_get_nanos_count 200",
		"# TYPE lsm_flushes_total counter",
		`lsm_level_files{level="0"}`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("Prometheus output missing %q", want)
		}
	}
}

// checkAgreement walks the engine's struct→series tables and fails unless
// every series carries exactly the value its Metrics field does (the store
// must be quiescent). It returns the Metrics it compared.
func checkAgreement(t *testing.T, reg *metrics.Registry, db *DB) Metrics {
	t.Helper()
	snap := reg.Snapshot()
	m := db.Metrics()
	for _, s := range counterSeries {
		want := (*s.cell(&db.metrics)).Value()
		if s.field != nil {
			want = *s.field(&m)
		}
		if got, ok := snap[s.name].(int64); !ok || got != want {
			t.Errorf("%s = %v, Metrics says %d", s.name, snap[s.name], want)
		}
	}
	for _, s := range sampledSeries {
		got, want := snap[s.name], any(s.get(&m))
		if s.counter {
			want = int64(s.get(&m))
		}
		if got != want {
			t.Errorf("%s = %v, Metrics says %v", s.name, got, want)
		}
	}
	for l := range m.LevelFiles {
		for name, want := range map[string]any{
			"lsm_compaction_input_bytes_total":  m.LevelCompactionInBytes[l],
			"lsm_compaction_output_bytes_total": m.LevelCompactionOutBytes[l],
			"lsm_level_files":                   float64(m.LevelFiles[l]),
			"lsm_level_bytes":                   float64(m.LevelBytes[l]),
		} {
			if got := snap[levelSeries(name, l)]; got != want {
				t.Errorf("%s = %v, Metrics says %v", levelSeries(name, l), got, want)
			}
		}
	}
	if sst, hits := snap["lsm_query_block_reads_total"], snap["lsm_query_block_hits_total"]; sst != db.QueryBlockReads() || hits != db.QueryBlockHits() {
		t.Errorf("query block reads/hits = %v/%v, accessors say %d/%d", sst, hits, db.QueryBlockReads(), db.QueryBlockHits())
	}
	return m
}

// TestMetricsSubcompactionSeries checks the parallel-compaction series: the
// shard counter and duration histogram, and the per-level write-amplification
// counters, which must reconcile with the engine's aggregate byte counters.
func TestMetricsSubcompactionSeries(t *testing.T) {
	reg := metrics.NewRegistry()
	opts := subcompactOptions(vfs.NewMem(), 2)
	opts.MetricsRegistry = reg
	db := mustOpen(t, opts)
	defer db.Close()

	applySubcompactWorkload(t, db)
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	m := checkAgreement(t, reg, db)
	compactions := snap["lsm_compactions_total"].(int64)
	shards := snap["lsm_subcompactions_total"].(int64)
	if compactions == 0 {
		t.Fatal("workload did not trigger any compaction")
	}
	if shards <= compactions {
		t.Errorf("lsm_subcompactions_total = %d for %d compactions, want more (splits engaged)",
			shards, compactions)
	}

	hists := make(map[string]metrics.HistogramSnapshot)
	reg.EachHistogram(func(name string, s metrics.HistogramSnapshot) { hists[name] = s })
	if s := hists["lsm_subcompact_nanos"]; s.Count != shards || s.Sum <= 0 {
		t.Errorf("lsm_subcompact_nanos = %+v, want count=%d with positive sum", s, shards)
	}

	var inSum, outSum int64
	for l := 0; l < numLevels; l++ {
		inSum += snap[`lsm_compaction_input_bytes_total{level="`+string(rune('0'+l))+`"}`].(int64)
		outSum += snap[`lsm_compaction_output_bytes_total{level="`+string(rune('0'+l))+`"}`].(int64)
	}
	if inSum != m.CompactedBytes || inSum == 0 {
		t.Errorf("per-level input bytes sum to %d, aggregate says %d", inSum, m.CompactedBytes)
	}
	if outSum != m.CompactionOutBytes || outSum == 0 {
		t.Errorf("per-level output bytes sum to %d, aggregate says %d", outSum, m.CompactionOutBytes)
	}
	if got := append([]int64(nil), m.LevelCompactionInBytes...); int64sum(got) != inSum {
		t.Errorf("Metrics().LevelCompactionInBytes sums to %d, series say %d", int64sum(got), inSum)
	}
	if got := append([]int64(nil), m.LevelCompactionOutBytes...); int64sum(got) != outSum {
		t.Errorf("Metrics().LevelCompactionOutBytes sums to %d, series say %d", int64sum(got), outSum)
	}
}

func int64sum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// TestMetricsPrivateRegistry checks that a DB opened without a registry gets
// its own: two such DBs never share cells (no global state).
func TestMetricsPrivateRegistry(t *testing.T) {
	db1 := mustOpen(t, testOptions(vfs.NewMem()))
	defer db1.Close()
	db2 := mustOpen(t, testOptions(vfs.NewMem()))
	defer db2.Close()
	if err := db1.Put(key(1), val(1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db1.Get(key(1)); err != nil {
		t.Fatal(err)
	}
	if db1.metrics.getNanos.Snapshot().Count != 1 || db1.metrics.writeGroups.Value() != 1 {
		t.Fatal("db1 traffic missing from its own cells")
	}
	if db2.metrics.getNanos.Snapshot().Count != 0 || db2.metrics.writeGroups.Value() != 0 {
		t.Fatal("db1 traffic observed in db2's cells")
	}
}
