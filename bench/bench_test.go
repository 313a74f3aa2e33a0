package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"adcache/internal/lsm"
	"adcache/internal/workload"
)

// manifest is BENCHMARK.json as the smoke test needs it.
type manifest struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []manifestMetric `json:"end_to_end"`
	PerLayer  []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesCode holds BENCHMARK.json and the tables in the code
// together: same workloads, same end-to-end metrics, directions and bounds.
func TestManifestMatchesCode(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %+v, code %q %q", i, m.Workloads[i], w.name, w.why)
		}
	}
	if len(m.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(m.EndToEnd), len(e2eMetrics))
	}
	for i, e := range e2eMetrics {
		better := "lower"
		if e.higherBetter {
			better = "higher"
		}
		if got := m.EndToEnd[i]; got != (manifestMetric{e.name, e.unit, better, e.bound}) {
			t.Errorf("end-to-end metric %d: manifest %+v, code %+v", i, got, e)
		}
	}
}

// TestSmoke runs every workload at 2k keys for one second per window, both
// passes, and checks that exactly the metrics BENCHMARK.json names come out,
// finite, with the manifest's unit, and that nothing failed.
func TestSmoke(t *testing.T) {
	m := readManifest(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, def := range workloads {
		def.keys = 2000
		for _, traced := range []bool{false, true} {
			def, traced := def, traced
			name, want := def.name+"/e2e", m.EndToEnd
			if traced {
				name, want = def.name+"/traced", m.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				out := t.TempDir()
				res, err := runWorkload(runConfig{
					def: def, seed: 1, window: time.Second, traced: traced, setups: 1,
					work: t.TempDir(), out: out,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || res.Attempted < 100 {
					t.Fatalf("attempted %d, failed %d", res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics reported, manifest names %d", len(res.Metrics), len(want))
				}
				for _, w := range want {
					got, ok := res.Metrics[w.Name]
					switch {
					case !ok:
						t.Errorf("%s: not reported", w.Name)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("%s: %v", w.Name, got.Value)
					case got.Unit != w.Unit || got.Unit == "":
						t.Errorf("%s: unit %q, manifest %q", w.Name, got.Unit, w.Unit)
					case !nameRE.MatchString(w.Name):
						t.Errorf("%s: not a valid metric name", w.Name)
					case !traced && got.Value <= 0:
						t.Errorf("%s: end-to-end metrics are never 0, got %v", w.Name, got.Value)
					}
				}
				if traced {
					b, err := os.ReadFile(filepath.Join(out, "trace-"+def.name+".jsonl"))
					if err != nil || bytes.Count(b, []byte("\n")) < 2 {
						t.Errorf("trace file: %d bytes, err %v", len(b), err)
					}
				}
			})
		}
	}
}

func TestOracleFlagsCorruption(t *testing.T) {
	o := newOracle(100, workers)
	o.versions[4] = 7 // worker 0 owns key 4
	good := makeValue(4, 7)
	if err := o.checkGet(4, good, true, 0); err != nil {
		t.Fatalf("good value rejected: %v", err)
	}
	if err := o.checkGet(4, good, false, 0); err == nil {
		t.Error("a missing key passed")
	}
	corrupt := bytes.Clone(good)
	corrupt[idxDigits-1] = '5' // now claims to be key 5's value
	if err := o.checkGet(4, corrupt, true, 0); err == nil {
		t.Error("a value belonging to another key passed")
	}
	if err := o.checkGet(4, makeValue(4, 6), true, 0); err == nil {
		t.Error("a stale version of the worker's own key passed")
	}
	if err := o.checkGet(4, makeValue(4, 6), true, 1); err != nil {
		t.Errorf("another worker's key is pinned to a version: %v", err)
	}
	if err := o.checkGet(4, good[:valueSize-1], true, 0); err == nil {
		t.Error("a truncated value passed")
	}

	scan := func(idxs ...int) []lsm.KV {
		var kvs []lsm.KV
		for _, i := range idxs {
			kvs = append(kvs, lsm.KV{Key: workload.Key(i), Value: makeValue(i, o.versions[i])})
		}
		return kvs
	}
	if err := o.checkScan(3, 3, scan(3, 4, 5), -1); err != nil {
		t.Errorf("good scan rejected: %v", err)
	}
	if err := o.checkScan(3, 3, scan(3, 5, 6), -1); err == nil {
		t.Error("a scan that skipped a key passed")
	}
	if err := o.checkScan(3, 3, scan(3, 4), -1); err == nil {
		t.Error("a short scan passed")
	}
	if err := o.checkScan(98, 16, scan(98, 99), -1); err != nil {
		t.Errorf("a scan ending at the last key rejected: %v", err)
	}
}

// TestDevFSDeviceTime: a write is free, a sync sleeps syncCost, and a read
// owes the access latency plus transfer time, which is really slept.
func TestDevFSDeviceTime(t *testing.T) {
	tr := newTracer()
	tr.enabled.Store(true)
	fs := newDevFS(true, tr)
	path := filepath.Join(t.TempDir(), "000001.sst")
	f, err := fs.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	const block, reads = 4096, 60
	if _, err := f.Write(make([]byte, block*reads)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < syncCost {
		t.Errorf("sync took %v, want at least %v", took, syncCost)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	st := fs.stats[kindSST].snapshot()
	if st[ioWriteOps] != 1 || st[ioSyncOps] != 1 || st[ioSimNanos] != 0 {
		t.Fatalf("after write+sync: %+v, want one write, one sync, no read time owed", st)
	}

	f, err = fs.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, block)
	start = time.Now()
	for i := 0; i < reads; i++ {
		if _, err := f.ReadAt(buf, int64(i*block)); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	st = fs.stats[kindSST].snapshot()
	want := reads * readCost(block)
	if st[ioReadOps] != reads || st[ioSimNanos] != want {
		t.Errorf("after %d reads: %+v, want %d ns of device time", reads, st, want)
	}
	if elapsed < 2*time.Millisecond {
		t.Errorf("%d reads took %v: the device time was not slept", reads, elapsed)
	}

	tr.enabled.Store(false)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if got := fs.stats[kindSST][ioReadOps].Load(); got != reads {
		t.Errorf("a read with tracing off was counted: %d", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if q1, q3 := quartiles(v); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100_000; v++ {
		h.observe(v)
	}
	s := h.snapshot()
	for _, q := range []float64{0.5, 0.99} {
		want := q * 100_000
		if got := s.quantile(q); math.Abs(got-want)/want > 0.04 {
			t.Errorf("quantile(%v) = %v, want about %v", q, got, want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ops ...float64) string {
		var set resultSet
		for _, v := range ops {
			set.Runs = append(set.Runs, &runResult{Workload: "embed_read", Metrics: map[string]metric{
				"ops_per_s": {Value: v, Unit: "1/s"}, "setup_s": {Value: 3, Unit: "s"},
			}})
		}
		b, err := json.Marshal(set)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 1000, 1010, 990, 1005)
	var out strings.Builder
	if err := compareSets(&out, base, write("same.json", 995, 1000, 1008, 1002)); err != nil {
		t.Errorf("equal sets: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareSets(&out, base, write("slow.json", 700, 705, 695, 710)); err != errWorse ||
		!strings.Contains(out.String(), "worse") {
		t.Errorf("30%% fewer ops/s: err %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareSets(&out, base, write("noisy.json", 600, 1000, 1400, 1010)); err != nil ||
		!strings.Contains(out.String(), "unresolved") {
		t.Errorf("a spread wider than the bound: err %v\n%s", err, out.String())
	}
}
