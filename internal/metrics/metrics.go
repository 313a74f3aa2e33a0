// Package metrics is the reproduction's dependency-free observability
// layer: atomic counters and log-bucketed latency histograms, plus
// per-component collectors for sampled values, in a named Registry exposed
// in Prometheus text format and expvar-style JSON.
//
// The paper's evaluation is measurement-driven — per-window hit-rate
// estimates (§3.5), I/O counts, and the agent's tuning trajectory — so the
// engine, the caches, and the RL tuner all publish into one registry per DB
// (no global state: the experiment harness opens many stores per process).
//
// All metric types are safe for concurrent use; Observe and Snapshot may
// race freely. Snapshots are internally consistent per counter but not
// across counters, which is the usual scrape semantics.
package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by delta (negative deltas are ignored so a
// counter can never regress).
func (c *Counter) Add(delta int64) {
	if delta > 0 {
		c.v.Add(delta)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// NumBuckets is the number of power-of-two histogram buckets: bucket i
// holds observations v with 2^i <= v < 2^(i+1) (bucket 0 additionally
// absorbs v <= 1). 63 buckets cover every positive int64.
const NumBuckets = 63

// Histogram is a log-bucketed histogram of int64 observations — typically
// latencies in nanoseconds, but any magnitude works (write-group sizes,
// scan lengths). Power-of-two buckets keep Observe allocation-free and a
// handful of atomic adds, at the cost of quantiles being exact only to the
// bucket (~2x); linear interpolation inside the bucket recovers most of
// that.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [NumBuckets]atomic.Int64
}

// bucketFor returns the bucket index for v.
func bucketFor(v int64) int {
	if v <= 1 {
		return 0
	}
	b := bits.Len64(uint64(v)) - 1 // v >= 2 ⇒ b >= 1
	if b >= NumBuckets {
		b = NumBuckets - 1
	}
	return b
}

// BucketLower returns the smallest value bucket i nominally holds.
func BucketLower(i int) int64 { return int64(1) << uint(i) }

// BucketUpper returns the largest value bucket i nominally holds.
func BucketUpper(i int) int64 {
	if i >= 62 {
		return math.MaxInt64
	}
	return int64(1)<<uint(i+1) - 1
}

// Observe records one observation. Values below zero are clamped to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketFor(v)].Add(1)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// ObserveSince records the time elapsed since start, in nanoseconds.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(int64(time.Since(start)))
}

// Snapshot returns a point-in-time copy of the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistogramSnapshot is an immutable copy of a Histogram's state, the unit
// of quantile computation and cross-shard merging.
type HistogramSnapshot struct {
	Count   int64
	Sum     int64
	Max     int64
	Buckets [NumBuckets]int64
}

// Merge accumulates other into s (for aggregating per-shard or per-DB
// histograms).
func (s *HistogramSnapshot) Merge(other HistogramSnapshot) {
	s.Count += other.Count
	s.Sum += other.Sum
	if other.Max > s.Max {
		s.Max = other.Max
	}
	for i := range s.Buckets {
		s.Buckets[i] += other.Buckets[i]
	}
}

// Mean returns the arithmetic mean of all observations (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns an estimate of the q-quantile (q in [0,1]) by locating
// the bucket holding the rank-⌈q·count⌉ observation and interpolating
// linearly inside it. Returns 0 for an empty histogram; q >= 1 returns the
// exact observed maximum.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q >= 1 {
		return float64(s.Max)
	}
	if q < 0 {
		q = 0
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		if cum+n < rank {
			cum += n
			continue
		}
		lo, hi := float64(BucketLower(i)), float64(BucketUpper(i))
		if i == 0 {
			lo = 0
		}
		// Cap the bucket's upper edge at the observed max so the top
		// quantiles never exceed a value that was actually recorded.
		if m := float64(s.Max); m >= lo && m < hi {
			hi = m
		}
		frac := float64(rank-cum) / float64(n)
		return lo + (hi-lo)*frac
	}
	return float64(s.Max)
}
