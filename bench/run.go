package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"slices"
	"sync"
	"time"
)

// runConfig is one run of one workload.
type runConfig struct {
	def      workloadDef
	seed     int64
	window   time.Duration // each measured phase; warm-up is a quarter of it
	traced   bool          // add the traced window and report per-layer metrics
	setups   int           // set-ups timed, at least; the last one is the store measured
	setupFor time.Duration // and more of them until they have taken this long
	work     string        // directory for the stores
	out      string        // directory for trace files; "" writes none
}

// runResult is what one run reports.
type runResult struct {
	Env       envelope          `json:"env"`
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     int               `json:"trace"`
	Seconds   float64           `json:"seconds"`
	Config    map[string]any    `json:"config"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	FirstErr  string            `json:"first_error,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Samples   map[string]int64  `json:"samples"`
	order     []string
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// memUse samples the runtime's mapped-and-not-released memory at 10 Hz until
// stop is called, and returns the samples' mean and peak in MB.
func memUse() (stop func() (mean, peak float64)) {
	samples := []rtmetrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}
	var sum, top float64
	var n int
	read := func() {
		rtmetrics.Read(samples)
		v := float64(samples[0].Value.Uint64() - samples[1].Value.Uint64())
		sum, top = sum+v, max(top, v)
		n++
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			read()
			select {
			case <-tick.C:
			case <-done:
				return
			}
		}
	}()
	return func() (mean, peak float64) {
		close(done)
		wg.Wait()
		return sum / float64(n) / mb, top / mb
	}
}

// runWorkload sets the workload's stack up, drives it through warm-up and
// the measured windows, checks the store's final state, and reports the
// end-to-end metrics (untraced) or the per-layer metrics (traced).
func runWorkload(cfg runConfig) (*runResult, error) {
	def := cfg.def
	res := &runResult{
		Workload: def.name, Seed: cfg.seed, Seconds: cfg.window.Seconds(),
		Config: map[string]any{
			"keys": def.keys, "value_bytes": valueSize, "key_bytes": keyLen, "cache_bytes": def.cache,
			"zipf": def.skew, "served": def.served, "workers": workers,
			"get_pct": def.mix.GetPct, "scan16_pct": def.mix.ShortScanPct, "scan64_pct": def.mix.LongScanPct,
			"write_pct": def.mix.WritePct, "warm_s": (cfg.window / 4).Seconds(),
		},
	}
	if cfg.traced {
		res.Trace = 1
	}
	tr := newTracer()

	// Set up at least cfg.setups times and for at least cfg.setupFor, so the
	// median of a 0.1 s set-up rests on twenty samples; each in a fresh
	// directory; keep the last.
	var st *stack
	var setupS []float64
	for i, begun := 0, time.Now(); i < cfg.setups || time.Since(begun) < cfg.setupFor; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, fmt.Errorf("close after set-up %d: %w", i, err)
			}
		}
		start := time.Now()
		var err error
		st, err = openStack(def, filepath.Join(cfg.work, fmt.Sprintf("%s-%d", def.name, i)), tr)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	closed := false
	defer func() {
		if !closed {
			st.close()
		}
	}()

	// Set-up garbage is not the serving footprint: return it before sampling.
	debug.FreeOSMemory()
	stopMem := memUse()

	d := newDriver(def, st, tr, cfg.seed)
	d.start()
	time.Sleep(cfg.window / 4)
	d.enter(phaseBase, cfg.window)
	time.Sleep(cfg.window)
	var before, after *layerSnap
	var tracedStart, tracedEnd time.Time
	if cfg.traced {
		before = snapLayers(st, tr)
		tracedStart = time.Now()
		d.enter(phaseTraced, cfg.window)
		time.Sleep(cfg.window)
		tracedEnd = time.Now()
		after = snapLayers(st, tr)
	}
	d.stop()
	memMean, memPeak := stopMem()

	// Final state: everything flushed and compacted, then read back whole.
	var finalErr error
	if err := st.db.Flush(); err != nil {
		finalErr = fmt.Errorf("final flush: %w", err)
	} else if err := st.db.Compact(); err != nil {
		finalErr = fmt.Errorf("final compact: %w", err)
	} else {
		finalErr = d.verify(st.targets[0])
	}
	spaceAmp := float64(st.db.Metrics().Engine.TotalBytes) / float64(def.keys*(keyLen+valueSize))

	res.Attempted, res.Failed, res.FirstErr = d.totals()
	res.Attempted++ // the final check counts as one attempted operation
	if finalErr != nil {
		res.Failed++
		if res.FirstErr == "" {
			res.FirstErr = finalErr.Error()
		}
	}

	var m *metricSet
	if cfg.traced {
		var wire wireCosts
		if def.served {
			wire = measureWire(cfg.seed)
		}
		m = layerMetrics(layerInputs{
			def: def, a: before, b: after, d: d, window: cfg.window,
			baseOps: d.opsPerSec(phaseBase), tracedOps: d.opsPerSec(phaseTraced),
			wire: wire, spaceAmp: spaceAmp, dropped: tr.dropped.Load(),
			memMean: memMean, memPeak: memPeak,
		})
		if cfg.out != "" {
			for _, w := range d.workers {
				for _, s := range w.rec[phaseTraced].kept {
					tr.keep(s)
				}
			}
			if err := tr.write(filepath.Join(cfg.out, "trace-"+def.name+".jsonl"), def.name, tracedStart, tracedEnd); err != nil {
				return nil, fmt.Errorf("write trace: %w", err)
			}
		}
	} else {
		m = newMetricSet()
		ops, n := d.opsPerSec(phaseBase), int64(cfg.window/sliceLen)
		m.timing("ops_per_s", ops, "1/s", n)
		getUs, gets := d.meanLatency(phaseBase, opGet)
		m.timing("get_mean_us", getUs, "us", gets)
		m.timing("setup_s", median(setupS), "s", int64(len(setupS)))
	}
	res.Metrics, res.Samples, res.order = m.values, m.samples, m.names

	closed = true
	if err := st.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	if res.Failed > 0 {
		return res, errors.New(res.FirstErr)
	}
	return res, nil
}
