package core

import (
	"fmt"
	"math"
	"testing"

	"adcache/internal/lsm"
	"adcache/internal/rl"
	"adcache/internal/vfs"
)

func rowAction(r calibRow, write float64) rl.Action {
	return rl.Action{RangeRatio: r.ratio, PointThreshold: r.threshold, ScanA: r.a, ScanB: r.b,
		MemRatio: clamp01f(0.05 + 1.1*write)}
}

// TestPriorReproducesCalibration: for a calibrated mix the prior is the row
// at the nearest calibrated share, in log space — on either side of the
// geometric midpoint between two rows, and held at the ends.
func TestPriorReproducesCalibration(t *testing.T) {
	for i, r := range calibration {
		p, s, l, w := r.point/100, r.short/100, r.long/100, r.write/100
		want := rowAction(r, w)
		for _, share := range []float64{r.share, r.share * 1.2, r.share / 1.2} {
			if got := Prior(p, s, l, w, share); got != want {
				t.Errorf("row %d at share %.4f: Prior = %+v, want %+v", i, share, got, want)
			}
		}
		if i+1 == len(calibration) || calibration[i+1].point != r.point || calibration[i+1].short != r.short ||
			calibration[i+1].long != r.long || calibration[i+1].write != r.write {
			if got := Prior(p, s, l, w, r.share*3); got != want {
				t.Errorf("row %d: above the largest share Prior = %+v, want %+v", i, got, want)
			}
			continue
		}
		next := calibration[i+1]
		mid := math.Sqrt(r.share * next.share)
		if got := Prior(p, s, l, w, mid*0.99); got != want {
			t.Errorf("row %d: just below the midpoint Prior = %+v, want %+v", i, got, want)
		}
		if got, want := Prior(p, s, l, w, mid*1.01), rowAction(next, w); got != want {
			t.Errorf("row %d: just above the midpoint Prior = %+v, want %+v", i, got, want)
		}
	}
	r := calibration[0]
	if got, want := Prior(r.point/100, r.short/100, r.long/100, r.write/100, r.share/3), rowAction(r, r.write/100); got != want {
		t.Errorf("below the smallest share Prior = %+v, want %+v", got, want)
	}
}

// TestPriorPicksNearestMix: a mix slightly off a calibrated one takes that
// mix's rows.
func TestPriorPicksNearestMix(t *testing.T) {
	for i, r := range calibration {
		p, s, l, w := r.point/100, r.short/100, r.long/100, r.write/100
		// Move 2 % of the operations from the largest share to the others.
		shares := []*float64{&p, &s, &l, &w}
		big := 0
		for j, v := range shares {
			if *v > *shares[big] {
				big = j
			}
		}
		*shares[big] -= 0.02
		for j, v := range shares {
			if j != big {
				*v += 0.02 / 3
			}
		}
		if got, want := Prior(p, s, l, w, r.share), rowAction(r, w); got != want {
			t.Errorf("row %d: near its mix Prior = %+v, want %+v", i, got, want)
		}
	}
}

// boundTestAdCache opens an engine on a with deterministic flushes.
func boundTestAdCache(t *testing.T, a *AdCache) *lsm.DB {
	t.Helper()
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
	return db
}

// TestFrozenTrajectoryIsThePrior: with learning and exploration off, every
// window's decision is the prior for that window's observed mix and cache
// share — residual zero — and what is applied is that decision after
// hysteresis.
func TestFrozenTrajectoryIsThePrior(t *testing.T) {
	cfg := Config{Capacity: 256 << 10, WindowSize: 200, SyncTuning: true, RecordTrace: true}
	cfg.RL = rl.DefaultConfig()
	cfg.RL.Frozen = true
	a, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	db := boundTestAdCache(t, a)
	key := func(i int) []byte { return []byte(fmt.Sprintf("key%06d", (i*7919)%4000)) }
	val := make([]byte, 128)
	for i := 0; i < 4000; i++ {
		if err := db.Put(key(i), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	loaded := len(a.Trace())
	// Read-only from here, so the live size — and the cache share — hold
	// still while the mix shifts from points to scans.
	for i := 0; i < 8000; i++ {
		var err error
		switch r := i % 10; {
		case i > 4000 && r < 7:
			_, err = db.Scan(key(i), 16+48*(i%2))
		case r < 7:
			_, _, err = db.Get(key(i))
		default:
			_, err = db.Scan(key(i), 16)
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	trace := a.Trace()
	if len(trace)-loaded < 30 {
		t.Fatalf("%d windows closed after the load", len(trace)-loaded)
	}
	_, share := a.shape()
	prev := trace[loaded-1].Params
	for i, w := range trace {
		if w.Residual != (Params{}) {
			t.Fatalf("window %d: frozen agent's residual %+v", i, w.Residual)
		}
		if i < loaded {
			continue
		}
		point, short, long, write := windowMix(w.Window)
		if want := a.decodeAction(Prior(point, short, long, write, share)); w.Prior != want {
			t.Fatalf("window %d: prior %+v, want %+v for the window's mix", i, w.Prior, want)
		}
		want := w.Prior
		if d := want.RangeRatio - prev.RangeRatio; d < 0.02 && d > -0.02 {
			want.RangeRatio = prev.RangeRatio
		}
		if w.Params != want {
			t.Fatalf("window %d: applied %+v, want the prior after hysteresis %+v", i, w.Params, want)
		}
		prev = w.Params
	}
}

// TestPinHoldsParams: a pinned setting is applied verbatim and survives
// every later window; the agent neither acts nor learns.
func TestPinHoldsParams(t *testing.T) {
	a := newTestAdCache(t, Config{WindowSize: 50})
	driveWindows(a, 2)
	steps := a.agent.Steps()
	act := rl.Action{RangeRatio: 0.51, PointThreshold: 0.5, ScanA: 0, ScanB: 0.25}
	a.Pin(act)
	want := a.decodeAction(act)
	for i := 0; i < 5; i++ {
		driveWindows(a, 1)
		if got := a.CurrentParams(); got != want {
			t.Fatalf("after %d windows params %+v, want pinned %+v", i+1, got, want)
		}
	}
	if got, want := a.Range().Capacity(), int64(0.51*float64(a.cfg.Capacity)); got != want {
		t.Fatalf("range capacity %d after pinning ratio 0.51, want %d", got, want)
	}
	if a.agent.Steps() != steps {
		t.Fatalf("agent learned while pinned: %d → %d steps", steps, a.agent.Steps())
	}
}
