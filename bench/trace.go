package main

import (
	"bufio"
	"encoding/json"
	"math/bits"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// traceSample keeps one request (and one device call) in this many verbatim;
// every one of them still lands in the per-layer aggregates.
const traceSample = 100

// maxSpans bounds the spans kept in memory until the run ends.
const maxSpans = 1 << 18

// span is one traced interval. Times are nanoseconds since the tracer's
// epoch. A request's spans share its ID as their root: the request span has
// the workload root as parent, a RoundTrip span the request, a handler span
// the RoundTrip. Device spans hang off the workload root, because from
// outside the program the benchmark cannot know which request issued a read.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Worker int    `json:"worker"`
	Bytes  int    `json:"bytes,omitempty"`
}

const rootSpanID = 1

// tracer collects spans from the benchmark's own wrappers around each layer.
type tracer struct {
	enabled atomic.Bool
	epoch   time.Time
	nextID  atomic.Uint64
	ioSeq   atomic.Uint64
	dropped atomic.Int64
	walSync hist

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.nextID.Store(rootSpanID)
	return t
}

func (t *tracer) on() bool { return t.enabled.Load() }

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

func (t *tracer) newID() uint64 { return t.nextID.Add(1) }

func (t *tracer) keep(s span) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped.Add(1)
	}
	t.mu.Unlock()
}

var fileKindNames = [nFileKinds]string{"sst", "wal", "other"}

func (t *tracer) ioSpan(kind fileKind, op string, n int, start, end time.Time) {
	if t.ioSeq.Add(1)%traceSample != 0 {
		return
	}
	t.keep(span{ID: t.newID(), Parent: rootSpanID, Layer: "vfs", Name: fileKindNames[kind] + "." + op,
		Start: t.since(start), End: t.since(end), Worker: -1, Bytes: n})
}

func (t *tracer) ioSync(kind fileKind, start, end time.Time) {
	if kind == kindWAL {
		t.walSync.observe(int64(end.Sub(start)))
	}
	t.ioSpan(kind, "sync", 0, start, end)
}

// write emits the workload root and every kept span as JSON lines.
func (t *tracer) write(path, workload string, start, end time.Time) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(span{ID: rootSpanID, Layer: "bench", Name: workload,
		Start: t.since(start), End: t.since(end), Worker: -1})
	t.mu.Lock()
	for i := 0; i < len(t.spans) && err == nil; i++ {
		err = enc.Encode(t.spans[i])
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// hist is a log-linear histogram of nanosecond values: 16 sub-buckets per
// power of two, so a quantile is exact to about 6 %. The registry's
// power-of-two histograms are too coarse for a p50 that a 10 % change must
// move.
type hist struct {
	count, sum atomic.Int64
	buckets    [60 * 16]atomic.Int64
}

func histBucket(v int64) int {
	if v < 16 {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1
	return (exp-3)*16 + int(v>>(exp-4))&15
}

// histLower is the smallest value bucket i holds.
func histLower(i int) int64 {
	if i < 16 {
		return int64(i)
	}
	exp := i/16 + 3
	return (16 + int64(i%16)) << (exp - 4)
}

func (h *hist) observe(v int64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[histBucket(v)].Add(1)
}

// histSnapshot is a plain copy of a hist, so windows can be subtracted.
type histSnapshot struct {
	count, sum int64
	buckets    [60 * 16]int64
}

func (h *hist) snapshot() histSnapshot {
	s := histSnapshot{count: h.count.Load(), sum: h.sum.Load()}
	for i := range h.buckets {
		s.buckets[i] = h.buckets[i].Load()
	}
	return s
}

func (a *histSnapshot) merge(b histSnapshot) {
	a.count += b.count
	a.sum += b.sum
	for i := range a.buckets {
		a.buckets[i] += b.buckets[i]
	}
}

func (a histSnapshot) sub(b histSnapshot) histSnapshot {
	a.count -= b.count
	a.sum -= b.sum
	for i := range a.buckets {
		a.buckets[i] -= b.buckets[i]
	}
	return a
}

// quantile interpolates inside the bucket that holds the q-th value.
func (s histSnapshot) quantile(q float64) float64 {
	if s.count == 0 {
		return 0
	}
	rank := q * float64(s.count)
	var cum float64
	for i, b := range s.buckets {
		if b == 0 {
			continue
		}
		if cum+float64(b) >= rank {
			lo, hi := float64(histLower(i)), float64(histLower(i+1))
			return lo + (hi-lo)*(rank-cum)/float64(b)
		}
		cum += float64(b)
	}
	return float64(histLower(len(s.buckets)))
}
