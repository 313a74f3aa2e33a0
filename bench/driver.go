package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"adcache/internal/lsm"
	"adcache/internal/workload"
)

// opKind is a request as the caller sees it.
type opKind int

const (
	opGet opKind = iota
	opScan
	opPut
	opBatch
	nOps
)

var opNames = [nOps]string{"get", "scan", "put", "batch"}

// The phases a run's workers pass through. Workers never stop between
// phases; the coordinator moves the shared phase on a timer.
const (
	phaseWarm   int32 = iota // caches fill, lazy set-up finishes, the RL controller passes tens of windows
	phaseBase                // measured with tracing off: the end-to-end metrics
	phaseTraced              // measured with tracing on: the per-layer metrics
	phaseDone
	nPhases = phaseDone
)

// sliceLen cuts a measured phase into slices. End-to-end rates and means are
// medians over slices, so one compaction burst or scheduler hiccup moves one
// slice and not the result.
const sliceLen = time.Second

// recorder holds one worker's measurements of one phase. Only that worker
// writes it until the run is over.
type recorder struct {
	start  time.Time
	ops    [nOps][]int64 // per slice
	nanos  [nOps][]int64
	lat    [nOps]hist // traced phase only
	kept   []span     // traced phase only: 1 request in traceSample
	errors int64
	first  error
}

func (r *recorder) begin(start time.Time, slices int) {
	r.start = start
	for k := range r.ops {
		r.ops[k] = make([]int64, slices)
		r.nanos[k] = make([]int64, slices)
	}
}

func (r *recorder) record(k opKind, t0, t1 time.Time) {
	i := int(t1.Sub(r.start) / sliceLen)
	if i < 0 || i >= len(r.ops[k]) {
		return // finished after the phase's last slice closed
	}
	r.ops[k][i]++
	r.nanos[k][i] += int64(t1.Sub(t0))
}

func (r *recorder) fail(err error) {
	r.errors++
	if r.first == nil {
		r.first = err
	}
}

// worker is one closed-loop caller.
type worker struct {
	id      int
	def     workloadDef
	gen     *workload.Generator
	tgt     target
	or      *oracle
	tr      *tracer
	puts    int
	nextVer uint32
	ops     int64
	rec     [nPhases]recorder
}

// driver runs the workers of one workload through the phases.
type driver struct {
	def     workloadDef
	or      *oracle
	tr      *tracer
	phase   atomic.Int32
	wg      sync.WaitGroup
	workers [workers]*worker
}

func newDriver(def workloadDef, st *stack, tr *tracer, seed int64) *driver {
	d := &driver{def: def, or: newOracle(def.keys, workers), tr: tr}
	for i := range d.workers {
		d.workers[i] = &worker{
			id: i, def: def, tgt: st.targets[i], or: d.or, tr: tr,
			gen: workload.NewGenerator(workload.Config{
				NumKeys: def.keys, ValueSize: 1, // values are the oracle's, not the generator's
				PointSkew: def.skew, ScanSkew: def.skew,
				Seed: seed*workers + int64(i) + 1,
			}),
		}
	}
	return d
}

// enter moves every worker to phase p; a measured phase lasts window.
func (d *driver) enter(p int32, window time.Duration) {
	now := time.Now()
	if p < phaseDone {
		for _, w := range d.workers {
			w.rec[p].begin(now, int(window/sliceLen))
		}
	}
	d.tr.enabled.Store(p == phaseTraced)
	d.phase.Store(p)
}

// start launches the workers in the warm-up phase, which records nothing.
func (d *driver) start() {
	d.enter(phaseWarm, 0)
	for _, w := range d.workers {
		d.wg.Add(1)
		go func(w *worker) {
			defer d.wg.Done()
			w.loop(&d.phase)
		}(w)
	}
}

// stop ends the last phase and waits for every worker to return.
func (d *driver) stop() {
	d.enter(phaseDone, 0)
	d.wg.Wait()
}

// totals reports operations attempted and failed over all phases, warm-up
// included, and the first failure.
func (d *driver) totals() (attempted, failed int64, first string) {
	for _, w := range d.workers {
		attempted += w.ops
		for p := range w.rec {
			failed += w.rec[p].errors
			if first == "" && w.rec[p].first != nil {
				first = w.rec[p].first.Error()
			}
		}
	}
	return attempted, failed, first
}

// opsPerSec is the median over the phase's slices of operations completed
// per second, all kinds and workers together.
func (d *driver) opsPerSec(p int32) float64 {
	var rates []float64
	for i := range d.workers[0].rec[p].ops[0] {
		var n int64
		for _, w := range d.workers {
			for k := range w.rec[p].ops {
				n += w.rec[p].ops[k][i]
			}
		}
		rates = append(rates, float64(n)/sliceLen.Seconds())
	}
	return median(rates)
}

// meanLatency is the median over the phase's slices of the caller-observed
// mean latency of kind k in microseconds, and the operations behind it.
func (d *driver) meanLatency(p int32, k opKind) (us float64, samples int64) {
	var means []float64
	for i := range d.workers[0].rec[p].ops[k] {
		var n, nanos int64
		for _, w := range d.workers {
			n += w.rec[p].ops[k][i]
			nanos += w.rec[p].nanos[k][i]
		}
		if n > 0 {
			means = append(means, float64(nanos)/float64(n)*usPerNs)
			samples += n
		}
	}
	return median(means), samples
}

func (w *worker) loop(phase *atomic.Int32) {
	for {
		p := phase.Load()
		if p == phaseDone {
			return
		}
		w.step(&w.rec[p], p == phaseTraced)
	}
}

// step draws one operation from the generator, runs it against the target,
// times it as the caller sees it, and checks the result.
func (w *worker) step(rec *recorder, traced bool) {
	op := w.gen.Next(w.def.mix)
	idx, ok := keyIndex(op.Key)
	if !ok {
		rec.fail(fmt.Errorf("generator produced key %q", op.Key))
		return
	}
	kind := opGet
	var keys, values [][]byte
	var idxs []int
	switch op.Kind {
	case workload.OpScan:
		kind = opScan
	case workload.OpPut:
		kind = opPut
		w.puts++
		n := 1
		if w.def.served && w.puts%2 == 0 {
			kind, n = opBatch, batchSize
		}
		for i := 0; i < n; i++ {
			if i > 0 {
				idx, _ = keyIndex(w.gen.Next(workload.Mix{WritePct: 100}).Key)
			}
			idx = w.or.own(idx, w.id)
			w.nextVer++
			idxs = append(idxs, idx)
			keys = append(keys, workload.Key(idx))
			values = append(values, makeValue(idx, w.nextVer))
		}
	}

	w.ops++
	ctx := context.Background()
	var info opInfo
	if traced {
		info = opInfo{id: w.tr.newID(), worker: w.id, sampled: w.ops%traceSample == 0}
		ctx = withOp(ctx, &info)
	}

	var value []byte
	var found bool
	var got []lsm.KV
	var err error
	t0 := time.Now()
	switch kind {
	case opGet:
		value, found, err = w.tgt.get(ctx, op.Key)
	case opScan:
		got, err = w.tgt.scan(ctx, op.Key, op.ScanLen)
	case opPut:
		err = w.tgt.put(ctx, keys[0], values[0])
	case opBatch:
		err = w.tgt.batch(ctx, keys, values)
	}
	t1 := time.Now()

	rec.record(kind, t0, t1)
	if traced {
		rec.lat[kind].observe(int64(t1.Sub(t0)))
		if info.sampled {
			rec.kept = append(rec.kept, span{ID: info.id, Parent: rootSpanID, Layer: "caller", Name: opNames[kind],
				Start: w.tr.since(t0), End: w.tr.since(t1), Worker: w.id})
		}
	}

	switch {
	case err != nil:
		err = fmt.Errorf("%s: %w", opNames[kind], err)
	case kind == opGet:
		err = w.or.checkGet(idx, value, found, w.id)
	case kind == opScan:
		err = w.or.checkScan(idx, op.ScanLen, got, w.id)
	default:
		for i, idx := range idxs {
			w.or.versions[idx] = w.nextVer - uint32(len(idxs)-1-i)
		}
	}
	if err != nil {
		rec.fail(err)
	}
}

// verify reads the whole store back through target 0 after the workers have
// stopped: exactly the loaded keys, in order, each at its last version (the
// last chunk asks for more than remains, so a stray key beyond them shows).
func (d *driver) verify(tgt target) error {
	const chunk = 1024
	for next := 0; next < d.def.keys; {
		got, err := tgt.scan(context.Background(), workload.Key(next), chunk)
		if err != nil {
			return fmt.Errorf("final scan: %w", err)
		}
		if err := d.or.checkScan(next, chunk, got, -1); err != nil {
			return fmt.Errorf("final scan: %w", err)
		}
		next += len(got)
	}
	return nil
}
