package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"adcache/internal/lsm"
)

func newTestAdCache(t *testing.T, cfg Config) *AdCache {
	t.Helper()
	if cfg.Capacity == 0 {
		cfg.Capacity = 1 << 20
	}
	cfg.SyncTuning = true
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	return a
}

func TestDefaultsApplied(t *testing.T) {
	a := newTestAdCache(t, Config{})
	p := a.CurrentParams()
	if p.RangeRatio != 0.5 {
		t.Fatalf("initial ratio = %f", p.RangeRatio)
	}
	if p.ScanA != 16 {
		t.Fatalf("initial scan a = %d (paper: short-scan length)", p.ScanA)
	}
	if a.Block().Stats().Capacity+a.Range().Capacity() != 1<<20 {
		t.Fatalf("budget split = %d + %d", a.Block().Stats().Capacity, a.Range().Capacity())
	}
}

func TestPointResultAdmissionRoundTrip(t *testing.T) {
	a := newTestAdCache(t, Config{DisableAdmission: true})
	key, val := []byte("k"), []byte("v")
	if _, ok := a.GetCached(key); ok {
		t.Fatal("hit before insert")
	}
	a.OnPointResult(key, val, 1)
	v, ok := a.GetCached(key)
	if !ok || string(v) != "v" {
		t.Fatalf("GetCached = %q ok=%v", v, ok)
	}
}

func TestNotFoundResultsNotCached(t *testing.T) {
	a := newTestAdCache(t, Config{DisableAdmission: true})
	a.OnPointResult([]byte("absent"), nil, 1)
	if _, ok := a.GetCached([]byte("absent")); ok {
		t.Fatal("cached a not-found result")
	}
}

func TestFrequencyAdmissionFiltersColdKeys(t *testing.T) {
	a := newTestAdCache(t, Config{})
	// Force a strict threshold.
	a.params.Store(Params{RangeRatio: 0.5, PointThreshold: 0.5, ScanA: 16, ScanB: 0.5})
	// Establish missed-key mass first: with an empty sketch the first key's
	// normalized score is trivially 1, and admit-all during cold start is
	// intended behaviour.
	for i := 0; i < 200; i++ {
		a.cms.Increment([]byte(fmt.Sprintf("bg%03d", i)))
	}
	a.OnPointResult([]byte("one-off"), []byte("v"), 1)
	if _, ok := a.GetCached([]byte("one-off")); ok {
		t.Fatal("cold key admitted past a strict threshold")
	}
	// A hot key eventually clears even a strict threshold (score → 1 as it
	// dominates the missed-key mass).
	for i := 0; i < 50; i++ {
		a.OnPointResult([]byte("hot"), []byte("v"), 1)
	}
	if _, ok := a.GetCached([]byte("hot")); !ok {
		t.Fatal("hot key never admitted")
	}
}

func TestScanPartialAdmission(t *testing.T) {
	p := Params{RangeRatio: 0.5, PointThreshold: 0, ScanA: 16, ScanB: 0.5}
	// l=64 > a=16: each pass admits b(l-a) = 24 entries beyond what is
	// already covered; up to a, the whole scan.
	if got := partialAdmitGrowth(p, 64); got != 24 {
		t.Fatalf("long-scan growth = %d, want 24", got)
	}
	if got := partialAdmitGrowth(p, 16); got != 16 {
		t.Fatalf("short-scan growth = %d, want the whole scan", got)
	}

	// admitted feeds a one l-entry scan result and reports how many entries
	// the range cache holds afterwards.
	admitted := func(a *AdCache, l int) int {
		entries := make([]lsm.KV, l)
		for i := range entries {
			entries[i] = lsm.KV{Key: []byte(fmt.Sprintf("k%02d", i)), Value: []byte("v")}
		}
		a.OnScanResult([]byte("k00"), entries, 1)
		return a.rng.Stats().Entries
	}
	for _, l := range []int{10, 16} { // up to a: admitted whole
		a := newTestAdCache(t, Config{})
		a.params.Store(p)
		if got := admitted(a, l); got != l {
			t.Fatalf("scan of %d admitted %d, want all", l, got)
		}
	}
	// Repetitions extend coverage by another b(l-a) each and cap at the scan
	// length — fully cached after ≈1/b repetitions, as §3.4 describes.
	a := newTestAdCache(t, Config{})
	a.params.Store(p)
	for pass, want := range []int{24, 48, 64, 64} {
		if got := admitted(a, 64); got != want {
			t.Fatalf("pass %d of a long scan leaves %d entries cached, want %d", pass+1, got, want)
		}
	}
	if got := admitted(newTestAdCache(t, Config{DisableAdmission: true}), 64); got != 64 {
		t.Fatalf("ablation admitted %d, want all", got)
	}
}

func TestScanResultIncrementalAdmission(t *testing.T) {
	a := newTestAdCache(t, Config{})
	a.params.Store(Params{RangeRatio: 0.9, PointThreshold: 0, ScanA: 4, ScanB: 0.5})
	entries := make([]lsm.KV, 8)
	for i := range entries {
		entries[i] = lsm.KV{
			Key:   []byte(fmt.Sprintf("k%02d", i)),
			Value: []byte("v"),
		}
	}
	// First pass admits b(l-a) = 2 entries; the full scan still misses.
	a.OnScanResult([]byte("k00"), entries, 3)
	if _, ok := a.ScanCached([]byte("k00"), 2); !ok {
		t.Fatal("admitted prefix not served")
	}
	if _, ok := a.ScanCached([]byte("k00"), 8); ok {
		t.Fatal("served beyond the admitted prefix")
	}
	// Repetitions extend coverage until the whole scan is cached.
	for i := 0; i < 3; i++ {
		a.OnScanResult([]byte("k00"), entries, 3)
	}
	if _, ok := a.ScanCached([]byte("k00"), 8); !ok {
		t.Fatal("repeated scan never became fully cached")
	}
}

func TestWriteCoherence(t *testing.T) {
	a := newTestAdCache(t, Config{DisableAdmission: true})
	a.OnPointResult([]byte("k"), []byte("old"), 1)
	a.OnWrite([]byte("k"), []byte("new"), false)
	if v, ok := a.GetCached([]byte("k")); !ok || string(v) != "new" {
		t.Fatalf("after update = %q ok=%v", v, ok)
	}
	a.OnWrite([]byte("k"), nil, true)
	if _, ok := a.GetCached([]byte("k")); ok {
		t.Fatal("deleted key still cached")
	}
}

func TestWindowTuningAppliesParams(t *testing.T) {
	a := newTestAdCache(t, Config{WindowSize: 50})
	before := a.Windows()
	for i := 0; i < 200; i++ {
		a.GetCached([]byte(fmt.Sprintf("k%d", i%10)))
		a.OnPointResult([]byte(fmt.Sprintf("k%d", i%10)), []byte("v"), 1)
	}
	if a.Windows() <= before {
		t.Fatal("synchronous tuning processed no windows")
	}
	// Budget invariant must hold after boundary moves.
	total := a.Block().Stats().Capacity + a.Range().Capacity()
	if total < (1<<20)-1024 || total > (1<<20)+1024 {
		t.Fatalf("budget drifted to %d", total)
	}
}

func TestDisablePartitioningFixesBoundary(t *testing.T) {
	a := newTestAdCache(t, Config{WindowSize: 50, DisablePartitioning: true, InitialRangeRatio: 0.7})
	for i := 0; i < 500; i++ {
		a.GetCached([]byte(fmt.Sprintf("k%d", i)))
		a.OnPointResult([]byte(fmt.Sprintf("k%d", i)), []byte("v"), 1)
	}
	if r := a.CurrentParams().RangeRatio; r != 0.7 {
		t.Fatalf("ratio moved to %f despite ablation", r)
	}
}

func TestScanBlockFillQuota(t *testing.T) {
	a := newTestAdCache(t, Config{})
	a.params.Store(Params{RangeRatio: 0.5, PointThreshold: 0, ScanA: 16, ScanB: 0.5})
	if _, limited := a.ScanBlockFillQuota(10); limited {
		t.Fatal("short scans must fill freely")
	}
	quota, limited := a.ScanBlockFillQuota(64)
	if !limited || quota < 1 {
		t.Fatalf("long-scan quota = %d limited=%v", quota, limited)
	}
	a2 := newTestAdCache(t, Config{DisableAdmission: true})
	if _, limited := a2.ScanBlockFillQuota(64); limited {
		t.Fatal("ablation must not limit fills")
	}
}

func TestTraceRecording(t *testing.T) {
	a := newTestAdCache(t, Config{WindowSize: 20, RecordTrace: true})
	for i := 0; i < 100; i++ {
		a.GetCached([]byte(fmt.Sprintf("k%d", i%5)))
		a.OnPointResult([]byte(fmt.Sprintf("k%d", i%5)), []byte("v"), 1)
	}
	trace := a.Trace()
	if len(trace) == 0 {
		t.Fatal("no trace recorded")
	}
	for _, tr := range trace {
		if tr.HEstimate < 0 || tr.HEstimate > 1 {
			t.Fatalf("hEst out of range: %f", tr.HEstimate)
		}
		if tr.Params.RangeRatio < 0 || tr.Params.RangeRatio > 1 {
			t.Fatalf("ratio out of range: %f", tr.Params.RangeRatio)
		}
	}
}

func TestTinyRangeCapacitySkipsInserts(t *testing.T) {
	a := newTestAdCache(t, Config{InitialRangeRatio: 0.0001, DisableAdmission: true})
	a.OnPointResult([]byte("k"), []byte("v"), 1)
	if a.Range().Stats().Entries != 0 {
		t.Fatal("inserted into a boundary-starved range cache")
	}
}

func TestAsyncTuningMode(t *testing.T) {
	// Production mode: the tuner runs on its own goroutine; Close stops it.
	a, err := New(Config{Capacity: 1 << 20}) // SyncTuning off
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		a.GetCached([]byte(fmt.Sprintf("k%d", i%50)))
		a.OnPointResult([]byte(fmt.Sprintf("k%d", i%50)), []byte("v"), 1)
	}
	// The async tuner may lag but must make some progress under load with
	// brief pauses.
	deadline := time.Now().Add(5 * time.Second)
	for a.Windows() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		a.GetCached([]byte("poke"))
	}
	if a.Windows() == 0 {
		t.Fatal("async tuner processed no windows")
	}
	a.Close()
	a.Close() // idempotent
}

func TestConcurrentStrategyUse(t *testing.T) {
	a := newTestAdCache(t, Config{WindowSize: 100})
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				key := []byte(fmt.Sprintf("k%04d", (g*131+i)%500))
				switch i % 4 {
				case 0:
					if _, ok := a.GetCached(key); !ok {
						a.OnPointResult(key, []byte("v"), 1)
					}
				case 1:
					a.ScanCached(key, 8)
				case 2:
					a.OnWrite(key, []byte("w"), false)
				case 3:
					a.OnWrite(key, nil, true)
				}
			}
		}(g)
	}
	wg.Wait()
	if total := a.Block().Stats().Capacity + a.Range().Capacity(); total <= 0 {
		t.Fatal("budget lost under concurrency")
	}
}

// TestReadFreeWindowLeavesController pins that a window with no lookups
// (its hit-rate estimate is 0 by construction) is counted but trains
// nothing: the agent takes no step, the parameters and the smoothed
// reward stay where the last read window left them.
func TestReadFreeWindowLeavesController(t *testing.T) {
	a := newTestAdCache(t, Config{WindowSize: 50})
	for i := 0; i < 100; i++ {
		k := []byte(fmt.Sprintf("k%d", i%10))
		a.GetCached(k)
		a.OnPointResult(k, []byte("v"), 1)
	}
	// A lookup is counted into the window after the one its op closed, so
	// the first write window still holds the last read.
	for i := 0; i < 50; i++ {
		a.OnWrite([]byte(fmt.Sprintf("w%d", i)), []byte("v"), false)
	}
	before := a.TuningState()
	params := a.CurrentParams()
	if before.AgentSteps == 0 {
		t.Fatal("read windows trained nothing")
	}
	for i := 0; i < 200; i++ {
		a.OnWrite([]byte(fmt.Sprintf("w%d", i)), []byte("v"), false)
	}
	after := a.TuningState()
	if after.Windows != before.Windows+4 || a.Windows() != after.Windows {
		t.Fatalf("windows %d → %d (Windows() %d), want 4 more", before.Windows, after.Windows, a.Windows())
	}
	if after.AgentSteps != before.AgentSteps {
		t.Fatalf("agent steps %d → %d on read-free windows", before.AgentSteps, after.AgentSteps)
	}
	if after.HSmoothed != before.HSmoothed {
		t.Fatalf("smoothed reward %v → %v on read-free windows", before.HSmoothed, after.HSmoothed)
	}
	if got := a.CurrentParams(); got != params {
		t.Fatalf("params %+v → %+v on read-free windows", params, got)
	}
}
