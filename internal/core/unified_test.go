package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"adcache/internal/lsm"
	"adcache/internal/nn"
	"adcache/internal/rl"
	"adcache/internal/vfs"
)

// TestOldDimModelRejected pins the agent-dimension migration contract: a
// serialized agent from before the unified-memory dims (13-dim state,
// 4-dim action) must be rejected with nn.ErrArchitectureMismatch, never
// silently misindexed into the grown networks.
func TestOldDimModelRejected(t *testing.T) {
	fs := vfs.NewMem()
	rng := rand.New(rand.NewSource(1))
	oldActor := nn.NewMLP([]int{13, rl.HiddenDim, rl.HiddenDim, 4}, nn.ReLU, nn.Sigmoid, rng)
	oldCritic := nn.NewMLP([]int{13, rl.HiddenDim, rl.HiddenDim, 1}, nn.ReLU, nn.Linear, rng)
	if err := oldActor.Save(fs, "model.actor", ""); err != nil {
		t.Fatal(err)
	}
	if err := oldCritic.Save(fs, "model.critic", ""); err != nil {
		t.Fatal(err)
	}

	_, err := New(Config{Capacity: 1 << 20, ModelFS: fs, ModelPath: "model"}, nil)
	if err == nil {
		t.Fatal("loading a 13/4-dim model into an 18/5-dim agent succeeded")
	}
	if !errors.Is(err, nn.ErrArchitectureMismatch) {
		t.Fatalf("err = %v, want nn.ErrArchitectureMismatch", err)
	}
}

// TestCurrentDimModelRoundTrips: an agent serialized at the current dims
// loads back cleanly (the rejection above is about dims, not loading).
func TestCurrentDimModelRoundTrips(t *testing.T) {
	fs := vfs.NewMem()
	agent := rl.New(rl.Config{Seed: 7})
	if err := agent.Save(fs, "model"); err != nil {
		t.Fatal(err)
	}
	a, err := New(Config{Capacity: 1 << 20, ModelFS: fs, ModelPath: "model"}, nil)
	if err != nil {
		t.Fatalf("round trip failed: %v", err)
	}
	a.Close()
}

// unifiedParamsTrace opens a deterministic unified-memory stack (seeded
// memtables, InlineCompaction, SyncTuning) and returns the per-window
// Params trace of a fixed mixed workload.
func unifiedParamsTrace(t *testing.T) []Params {
	t.Helper()
	a, err := New(Config{
		Capacity:            1 << 20,
		WindowSize:          200,
		SyncTuning:          true,
		MemtableArbitration: true,
		RecordTrace:         true,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)

	opts := lsm.DefaultOptions("db")
	opts.FS = vfs.NewMem()
	opts.InlineCompaction = true
	opts.MemTableSize = 64 << 10
	opts.Strategy = a
	db, err := lsm.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	a.Bind(db)

	val := make([]byte, 256)
	for i := 0; i < 3000; i++ {
		key := []byte(fmt.Sprintf("key%06d", i%500))
		if i%3 == 0 {
			if err := db.Put(key, val); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, _, err := db.Get(key); err != nil {
				t.Fatal(err)
			}
		}
	}

	trace := a.Trace()
	params := make([]Params, len(trace))
	for i, w := range trace {
		params[i] = w.Params
	}
	return params
}

// TestUnifiedDecodeDeterministic: under InlineCompaction + SyncTuning two
// identically-seeded stacks produce identical per-window Params traces —
// including the new MemRatio dimension — and every decoded MemRatio stays
// inside the configured band.
func TestUnifiedDecodeDeterministic(t *testing.T) {
	p1 := unifiedParamsTrace(t)
	p2 := unifiedParamsTrace(t)
	if len(p1) == 0 {
		t.Fatal("no windows closed")
	}
	if !reflect.DeepEqual(p1, p2) {
		t.Fatalf("param traces diverge:\n%+v\nvs\n%+v", p1, p2)
	}
	for i, p := range p1 {
		if p.MemRatio < 0.05-1e-9 || p.MemRatio > 0.6+1e-9 {
			t.Fatalf("window %d MemRatio %f outside [memRatioMin, memRatioMax]", i, p.MemRatio)
		}
	}
}

// TestMemRatioHysteresisPublishing pins the satellite fix: the MemRatio
// dimension gets the same post-hysteresis publishing as the cache params —
// a sub-deadband move is not applied AND not published, so dashboards
// never show a pre-clamp target.
func TestMemRatioHysteresisPublishing(t *testing.T) {
	a := newTestAdCache(t, Config{MemtableArbitration: true, InitialMemRatio: 0.3})
	base := a.CurrentParams()
	if base.MemRatio != 0.3 {
		t.Fatalf("initial MemRatio = %f, want 0.3", base.MemRatio)
	}

	p := base
	p.MemRatio = 0.315 // inside the ±0.02 deadband
	applied := a.applyParams(p)
	if applied.MemRatio != base.MemRatio {
		t.Fatalf("sub-deadband move applied: %f", applied.MemRatio)
	}
	if got := a.CurrentParams().MemRatio; got != base.MemRatio {
		t.Fatalf("published MemRatio %f is the pre-clamp target", got)
	}

	p.MemRatio = 0.4 // beyond the deadband: applies and publishes
	applied = a.applyParams(p)
	if applied.MemRatio != 0.4 {
		t.Fatalf("real move suppressed: %f", applied.MemRatio)
	}
	if got := a.CurrentParams().MemRatio; got != 0.4 {
		t.Fatalf("published MemRatio = %f, want 0.4", got)
	}
}

// TestBudgetsPartitionCapacity: the three-component ledger always
// partitions the configured capacity (targets sum to Capacity, modulo
// integer truncation at the two splits).
func TestBudgetsPartitionCapacity(t *testing.T) {
	a := newTestAdCache(t, Config{Capacity: 1 << 20, MemtableArbitration: true, InitialMemRatio: 0.25})
	var sum int64
	for _, b := range a.Budgets() {
		if b.Component == "memtable" {
			sum += b.TargetBytes
		}
	}
	sum += a.Block().Capacity() + a.Range().Capacity()
	if diff := (int64(1) << 20) - sum; diff < 0 || diff > 2 {
		t.Fatalf("budget targets sum to %d, want %d (±2 truncation)", sum, int64(1)<<20)
	}
}
