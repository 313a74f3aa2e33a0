package core

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"adcache/internal/lsm"
	"adcache/internal/rl"
	"adcache/internal/vfs"
)

func newTestAdCache(t *testing.T, cfg Config) *AdCache {
	t.Helper()
	if cfg.Capacity == 0 {
		cfg.Capacity = 1 << 20
	}
	a := New(cfg)
	a.tuneInline() // what Bind does for an InlineCompaction engine
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

// TestDisablePartitioningFixesBoundary: the admission-only ablation keeps
// the whole budget in the range cache from the start, whatever the agent
// asks for.
func TestDisablePartitioningFixesBoundary(t *testing.T) {
	a := newTestAdCache(t, Config{WindowSize: 50, DisablePartitioning: true})
	if got, want := a.Range().Capacity(), int64(0.99*float64(a.cfg.Capacity)); got != want {
		t.Fatalf("range capacity %d, want %d", got, want)
	}
	for i := 0; i < 500; i++ {
		a.GetCached([]byte(fmt.Sprintf("k%d", i)))
		a.OnPointResult([]byte(fmt.Sprintf("k%d", i)), []byte("v"), 1)
	}
	if r := a.CurrentParams().RangeRatio; r != 0.99 {
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

func TestJournalRecording(t *testing.T) {
	a := newTestAdCache(t, Config{WindowSize: 20})
	for i := 0; i < 100; i++ {
		a.GetCached([]byte(fmt.Sprintf("k%d", i%5)))
		a.OnPointResult([]byte(fmt.Sprintf("k%d", i%5)), []byte("v"), 1)
	}
	trace := a.Journal(0)
	if int64(len(trace)) != a.Windows() || len(trace) == 0 {
		t.Fatalf("%d records for %d windows", len(trace), a.Windows())
	}
	for i, tr := range trace {
		if tr.Windows != int64(i+1) || !tr.Trained || tr.Window.Points == 0 {
			t.Fatalf("record %d: windows %d trained %v window %+v", i, tr.Windows, tr.Trained, tr.Window)
		}
		if tr.HEstimate < 0 || tr.HEstimate > 1 {
			t.Fatalf("hEst out of range: %f", tr.HEstimate)
		}
		if tr.Params.RangeRatio < 0 || tr.Params.RangeRatio > 1 {
			t.Fatalf("ratio out of range: %f", tr.Params.RangeRatio)
		}
	}
}

func TestTinyRangeCapacitySkipsInserts(t *testing.T) {
	a := newTestAdCache(t, Config{DisableAdmission: true})
	a.Pin(rl.Action{RangeRatio: 0.0001})
	a.OnPointResult([]byte("k"), []byte("v"), 1)
	if a.Range().Stats().Entries != 0 {
		t.Fatal("inserted into a boundary-starved range cache")
	}
}

func TestAsyncTuningMode(t *testing.T) {
	// Production mode: an unbound AdCache tunes on its own goroutine; Close
	// stops it.
	a := New(Config{Capacity: 1 << 20})
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

// waitTuner waits up to five seconds for a's background tuner goroutine to
// be running (want) or gone (!want): the goroutine dump names tuneLoop
// with its receiver once the goroutine has started.
func waitTuner(t *testing.T, a *AdCache, want bool) {
	t.Helper()
	frame := []byte(fmt.Sprintf("(*AdCache).tuneLoop(%p", a))
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); ; {
		n := runtime.Stack(buf, true)
		if bytes.Contains(buf[:n], frame) == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("background tuner running = %v, want %v", !want, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// bindEngine opens an engine on a, flushing and compacting inline or in
// the background, and binds a to it.
func bindEngine(t *testing.T, a *AdCache, inline bool) {
	t.Helper()
	opts := lsm.DefaultOptions("db")
	opts.FS = vfs.NewMem()
	opts.InlineCompaction = inline
	opts.Strategy = a
	db, err := lsm.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	a.Bind(db)
}

// TestBindInlineEngineStopsBackgroundTuner: binding to an engine that runs
// InlineCompaction ends the background tuner, and the operation that
// closes a window then runs the control step itself.
func TestBindInlineEngineStopsBackgroundTuner(t *testing.T) {
	a := New(Config{Capacity: 1 << 20, WindowSize: 100})
	defer a.Close()
	waitTuner(t, a, true)
	bindEngine(t, a, true)
	waitTuner(t, a, false)
	for w := int64(1); w <= 3; w++ {
		driveWindows(a, 1)
		if got := a.Windows(); got != w {
			t.Fatalf("%d windows journalled when window %d closed", got, w)
		}
	}
}

// TestBindBackgroundEngineKeepsAsyncTuning: binding to an engine that
// flushes and compacts in the background keeps the background tuner, and
// windows are still tuned off the serving path.
func TestBindBackgroundEngineKeepsAsyncTuning(t *testing.T) {
	a := New(Config{Capacity: 1 << 20, WindowSize: 100})
	defer a.Close()
	bindEngine(t, a, false)
	if a.inline.Load() {
		t.Fatal("Bind to a background engine switched to inline tuning")
	}
	waitTuner(t, a, true)
	driveWindows(a, 1)
	for deadline := time.Now().Add(5 * time.Second); a.Windows() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("background tuner processed no windows")
		}
		time.Sleep(time.Millisecond)
	}
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
				if i%250 == 0 { // the journal is read while windows close
					recs := a.Journal(a.Windows() - 4)
					for j := 1; j < len(recs); j++ {
						if recs[j].Windows != recs[j-1].Windows+1 {
							t.Errorf("journal skips from window %d to %d", recs[j-1].Windows, recs[j].Windows)
						}
					}
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

// TestBudgetsPartitionCapacity: the ledger has two components, the block
// and range caches; their targets are the caches' capacities and partition
// the configured capacity, at the initial split and after a move, up to the
// remainders a cache drops when it splits its budget evenly among its
// shards.
func TestBudgetsPartitionCapacity(t *testing.T) {
	const capacity = 1 << 20
	a := newTestAdCache(t, Config{Capacity: capacity})
	check := func(when string) {
		t.Helper()
		b := a.Budgets()
		if len(b) != 2 || b[0].Component != "blockcache" || b[1].Component != "rangecache" {
			t.Fatalf("%s: ledger %+v, want blockcache and rangecache", when, b)
		}
		if diff := capacity - (b[0].TargetBytes + b[1].TargetBytes); diff < 0 || diff >= 64 {
			t.Fatalf("%s: targets sum to %d of %d bytes", when, capacity-diff, capacity)
		}
		if b[0].TargetBytes != a.Block().Stats().Capacity || b[1].TargetBytes != a.Range().Capacity() {
			t.Fatalf("%s: targets %d/%d, cache capacities %d/%d", when,
				b[0].TargetBytes, b[1].TargetBytes, a.Block().Stats().Capacity, a.Range().Capacity())
		}
	}
	check("initial split")
	p := a.CurrentParams()
	p.RangeRatio = 0.3
	a.applyParams(p)
	check("after a move")
}

// TestNoOpBudgetMoveTakesNoLocks pins that a window whose byte split
// hysteresis kept resizes neither cache (a resize locks every shard), and
// that a real move resizes both.
func TestNoOpBudgetMoveTakesNoLocks(t *testing.T) {
	a := newTestAdCache(t, Config{})
	base := a.CurrentParams()
	p := base
	p.RangeRatio += 0.01 // inside the ±0.02 deadband
	p.PointThreshold += 0.1
	before := a.resizes
	a.applyParams(p)
	a.applyParams(base)
	if a.resizes != before {
		t.Fatalf("moves inside the deadband resized the caches %d times", a.resizes-before)
	}
	p.RangeRatio = base.RangeRatio + 0.1
	a.applyParams(p)
	if got := a.resizes - before; got != 2 {
		t.Fatalf("a real move resized %d caches, want 2", got)
	}
	if got, want := a.rng.Capacity(), a.rangeBytes; got != want {
		t.Fatalf("range cache holds %d bytes of budget, the split says %d", got, want)
	}
}

// TestLearningTraceDeterministic: bound to an InlineCompaction engine, two
// identically-seeded learning stacks produce identical per-window Params
// traces on a fixed mixed workload.
func TestLearningTraceDeterministic(t *testing.T) {
	trace := func() []Params {
		a := New(Config{Capacity: 1 << 20, WindowSize: 200})
		t.Cleanup(a.Close)
		db := boundTestAdCache(t, a)
		val := make([]byte, 256)
		var err error
		for i := 0; i < 3000; i++ {
			key := []byte(fmt.Sprintf("key%06d", i%500))
			if i%3 == 0 {
				err = db.Put(key, val)
			} else {
				_, _, err = db.Get(key)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		var params []Params
		for _, w := range a.Journal(0) {
			params = append(params, w.Params)
		}
		return params
	}
	p1, p2 := trace(), trace()
	if len(p1) == 0 {
		t.Fatal("no windows closed")
	}
	if !reflect.DeepEqual(p1, p2) {
		t.Fatalf("param traces diverge:\n%+v\nvs\n%+v", p1, p2)
	}
}

// TestRewardIsTheHitRateEstimate pins the one reward: on a write-heavy mix
// that flushes and compacts, every trained window's smoothed reward is
// α·h + (1−α)·h_est of the estimated hit rate alone, with nothing priced
// for writes.
func TestRewardIsTheHitRateEstimate(t *testing.T) {
	a := New(Config{Capacity: 1 << 20, WindowSize: 200})
	t.Cleanup(a.Close)
	db := boundTestAdCache(t, a)
	val := make([]byte, 256)
	var err error
	for i := 0; i < 4000; i++ {
		key := []byte(fmt.Sprintf("key%06d", (i*7919)%1000))
		if i%4 == 0 {
			_, _, err = db.Get(key)
		} else {
			err = db.Put(key, val)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if db.Metrics().Flushes == 0 {
		t.Fatal("the mix never flushed")
	}
	var trace []TuningState
	for _, w := range a.Journal(0) {
		if w.Trained {
			trace = append(trace, w)
		}
	}
	if len(trace) < 2 {
		t.Fatalf("%d trained windows, want at least 2", len(trace))
	}
	alpha := a.cfg.Alpha
	h := trace[0].HEstimate
	for i, w := range trace {
		if i > 0 {
			h = alpha*h + (1-alpha)*w.HEstimate
		}
		if w.HSmoothed != h {
			t.Fatalf("window %d: smoothed reward %v, want %v from hit-rate estimates alone", i, w.HSmoothed, h)
		}
	}
}

// TestStateIsThePapersFeatures: the observation has the paper's 13
// features, each in [0, 1], and the agent acts on 4 parameters.
func TestStateIsThePapersFeatures(t *testing.T) {
	if rl.StateDim != 13 || rl.ActionDim != 4 {
		t.Fatalf("agent widths %d/%d, want 13/4", rl.StateDim, rl.ActionDim)
	}
	a := newTestAdCache(t, Config{WindowSize: 1 << 20})
	for i := 0; i < 300; i++ {
		k := []byte(fmt.Sprintf("k%d", i%40))
		a.GetCached(k)
		a.OnPointResult(k, []byte("v"), 1)
		if i%3 == 0 {
			a.ScanCached(k, 8)
		}
		a.OnWrite([]byte(fmt.Sprintf("w%d", i)), []byte("v"), false)
	}
	w := a.collector.EndWindow()
	shape, _ := a.shape()
	state := a.buildState(w, shape, shape.HitRateEstimate(w))
	if len(state) != rl.StateDim {
		t.Fatalf("state has %d features, want %d", len(state), rl.StateDim)
	}
	for i, f := range state {
		if f < 0 || f > 1 {
			t.Fatalf("feature %d = %v, outside [0, 1]", i, f)
		}
	}
}
