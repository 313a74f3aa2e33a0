package harness

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"

	"adcache"
	"adcache/internal/core"
	"adcache/internal/workload"
)

func smallConfig(s adcache.Strategy) Config {
	return Config{
		NumKeys: 3000, ValueSize: 64, CacheFrac: 0.10,
		Strategy: s, Seed: 17,
	}
}

func TestRunnerBuildsSizedCache(t *testing.T) {
	r, err := NewRunner(smallConfig(adcache.StrategyBlock))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	dbBytes := int64(r.DB.LSM().Metrics().TotalBytes)
	if dbBytes == 0 {
		t.Fatal("database not loaded")
	}
	want := int64(0.10 * float64(dbBytes))
	if got := r.CacheBytes; got < want/2 || got > want*2 {
		t.Fatalf("cache bytes = %d, want ≈%d", got, want)
	}
	// Every loaded key must be readable.
	for _, i := range []int{0, 1500, 2999} {
		if _, ok, err := r.DB.Get(workload.Key(i)); err != nil || !ok {
			t.Fatalf("Get(%d): ok=%v err=%v", i, ok, err)
		}
	}
}

func TestRunMeasuresCounts(t *testing.T) {
	r, err := NewRunner(smallConfig(adcache.StrategyBlock))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	res, err := r.Run(workload.MixBalanced, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 3000 {
		t.Fatalf("Ops = %d", res.Ops)
	}
	if res.Points+res.Scans+res.Writes != 3000 {
		t.Fatalf("counts = %d + %d + %d", res.Points, res.Scans, res.Writes)
	}
	if res.HitRate < 0 || res.HitRate > 1 {
		t.Fatalf("HitRate = %f", res.HitRate)
	}
	if res.QPS <= 0 {
		t.Fatalf("QPS = %f", res.QPS)
	}
	if res.Scans > 0 && res.ReadsPerOp() == 0 && res.BlockReads == 0 {
		t.Fatal("no block reads counted for a scan workload")
	}
}

func TestShapeReflectsTree(t *testing.T) {
	r, err := NewRunner(smallConfig(adcache.StrategyBlock))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	shape := r.Shape()
	if shape.Levels < 1 || shape.Runs < 1 {
		t.Fatalf("shape = %+v", shape)
	}
	if shape.EntriesPerBlock < 2 {
		t.Fatalf("entries/block = %f", shape.EntriesPerBlock)
	}
	if shape.BloomFPR <= 0 || shape.BloomFPR > 0.05 {
		t.Fatalf("FPR = %f", shape.BloomFPR)
	}
}

func TestDeterministicAcrossStrategies(t *testing.T) {
	// Different strategies must see the identical operation stream: equal
	// op-type counts under the same seed.
	counts := map[adcache.Strategy][3]int64{}
	for _, s := range []adcache.Strategy{adcache.StrategyBlock, adcache.StrategyRange} {
		r, err := NewRunner(smallConfig(s))
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run(workload.MixBalanced, 2000)
		r.Close()
		if err != nil {
			t.Fatal(err)
		}
		counts[s] = [3]int64{res.Points, res.Scans, res.Writes}
	}
	if counts[adcache.StrategyBlock] != counts[adcache.StrategyRange] {
		t.Fatalf("op streams diverged: %v vs %v",
			counts[adcache.StrategyBlock], counts[adcache.StrategyRange])
	}
}

func TestRunConcurrentAggregates(t *testing.T) {
	r, err := NewRunner(smallConfig(adcache.StrategyAdCache))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	res, perClient, err := r.RunConcurrent(workload.MixBalanced, 500, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 2000 {
		t.Fatalf("Ops = %d", res.Ops)
	}
	if perClient <= 0 {
		t.Fatalf("per-client QPS = %f", perClient)
	}
}

func TestTable2Accounting(t *testing.T) {
	rows := RunTable2()
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	weights := rows[0].Bytes
	if weights < 450_000 || weights > 650_000 {
		t.Fatalf("weights = %d bytes, want ≈550KB (paper Table 2)", weights)
	}
	if rows[4].Bytes != 4*weights {
		t.Fatalf("training total = %d, want 4× weights", rows[4].Bytes)
	}
}

func TestCSVExport(t *testing.T) {
	cells := []Cell{
		{Workload: "PointLookup", CacheFrac: 0.1, Strategy: "AdCache",
			Result: Result{HitRate: 0.5, BlockReads: 100, Ops: 1000, QPS: 123}},
	}
	var buf bytes.Buffer
	if err := WriteCellsCSV(&buf, cells); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "workload,cache_frac") || !strings.Contains(out, "AdCache") {
		t.Fatalf("csv = %q", out)
	}
	if lines := strings.Count(out, "\n"); lines != 2 {
		t.Fatalf("csv has %d lines", lines)
	}

	buf.Reset()
	if err := WritePhasesCSV(&buf, []PhaseResult{{Phase: "A", Strategy: "BlockCache"}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "phase,strategy") {
		t.Fatalf("phase csv = %q", buf.String())
	}

	buf.Reset()
	series := []Fig10Series{{Label: "w=1000", Traces: []core.WindowTrace{{HEstimate: 0.7}}}}
	if err := WriteTraceCSV(&buf, series); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "w=1000") {
		t.Fatalf("trace csv = %q", buf.String())
	}
}

// TestCalibrationDeterministic: the controlled-experiment sweep behind the
// prior's table is a pure function of its scale — two tiny runs print the
// same table — and every winner is a grid point.
func TestCalibrationDeterministic(t *testing.T) {
	sc := Scale{NumKeys: 1500, ValueSize: 64, WarmOps: 600, MeasureOps: 600, Seed: 3}
	mixes := []NamedMix{CalibrationMixes()[0], CalibrationMixes()[4]}
	fracs := []float64{0.05, 0.25}
	run := func() ([]CalibrationCell, string) {
		cells, err := Calibrate(sc, mixes, fracs, nil)
		if err != nil {
			t.Fatal(err)
		}
		return cells, FormatCalibration(cells)
	}
	cells, first := run()
	if _, second := run(); first != second {
		t.Fatalf("calibration tables differ:\n%s\nvs\n%s", first, second)
	}
	if len(cells) != len(mixes)*len(fracs) {
		t.Fatalf("%d cells, want %d", len(cells), len(mixes)*len(fracs))
	}
	onGrid := func(dim int, v float64) bool {
		for _, g := range calibrationGrid[dim] {
			if v == g {
				return true
			}
		}
		return false
	}
	for _, c := range cells {
		a := c.Action
		for dim, v := range []float64{a.RangeRatio, a.PointThreshold, a.ScanA, a.ScanB} {
			if !onGrid(dim, v) {
				t.Fatalf("%s at %.2f: dim %d = %v is not a grid value", c.Mix.Name, c.CacheFrac, dim, v)
			}
		}
		if c.ReadsPerOp <= 0 || c.Runs < len(calibrationGrid[0]) {
			t.Fatalf("%s at %.2f: %+v", c.Mix.Name, c.CacheFrac, c)
		}
	}
}

// backgroundTuners counts the goroutines running an AdCache tuning loop.
func backgroundTuners() int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	return bytes.Count(buf[:n], []byte("core.(*AdCache).tuneLoop"))
}

// TestFig11aTunesAsynchronously checks that Figure 11a measures what it
// reports: training on the background tuner while the engine flushes and
// compacts in the background, not inline on whichever client closes a
// window.
func TestFig11aTunesAsynchronously(t *testing.T) {
	for deadline := time.Now().Add(5 * time.Second); backgroundTuners() > 0; {
		if time.Now().After(deadline) {
			t.Fatal("a closed runner's tuner is still running")
		}
		time.Sleep(time.Millisecond)
	}
	sc := QuickScale()
	sc.NumKeys = 3000
	r, err := NewRunner(fig11aConfig(sc))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if n := backgroundTuners(); n != 1 {
		t.Errorf("%d background tuners, want 1", n)
	}
	if r.DB.LSM().Options().InlineCompaction {
		t.Error("engine flushes and compacts inline")
	}
}
