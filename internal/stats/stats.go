// Package stats implements the paper's Stats Collector: per-window workload
// counters and the I/O-based reward model of §3.5. The estimated no-cache
// I/O count
//
//	IO_estimate = p·(1+FPR) + s·(l/B) + s·(L + r0max/2 − 1)
//
// normalises measured block misses into an estimated hit rate
// h_estimate = 1 − IO_miss/IO_estimate, usable for both block and result
// caches without observing the true no-cache I/O.
package stats

import (
	"sync"
	"sync/atomic"
)

// Collector accumulates one window of workload statistics. All Record*
// methods are safe for concurrent use.
type Collector struct {
	points     atomic.Int64
	scans      atomic.Int64
	writes     atomic.Int64
	scanLenSum atomic.Int64
	blockReads atomic.Int64 // measured block I/O after cache misses (IO_miss)

	rangeGetHits   atomic.Int64
	rangeScanHits  atomic.Int64
	pointAdmits    atomic.Int64
	pointRejects   atomic.Int64
	scanFullAdmits atomic.Int64
	scanPartAdmits atomic.Int64

	mu           sync.Mutex
	totalWindows int64
}

// Window is an immutable snapshot of one window's counters.
type Window struct {
	Points     int64
	Scans      int64
	Writes     int64
	ScanLenSum int64
	BlockReads int64

	RangeGetHits   int64
	RangeScanHits  int64
	PointAdmits    int64
	PointRejects   int64
	ScanFullAdmits int64
	ScanPartAdmits int64
}

// Ops returns the total operation count in the window.
func (w Window) Ops() int64 { return w.Points + w.Scans + w.Writes }

// AvgScanLen returns the mean scan length l, or 0 with no scans.
func (w Window) AvgScanLen() float64 {
	if w.Scans == 0 {
		return 0
	}
	return float64(w.ScanLenSum) / float64(w.Scans)
}

// RecordPoint counts a point lookup. rangeHit reports that the result cache
// served it.
func (c *Collector) RecordPoint(rangeHit bool) {
	c.points.Add(1)
	if rangeHit {
		c.rangeGetHits.Add(1)
	}
}

// RecordScan counts a range scan of the given length.
func (c *Collector) RecordScan(length int, rangeHit bool) {
	c.scans.Add(1)
	c.scanLenSum.Add(int64(length))
	if rangeHit {
		c.rangeScanHits.Add(1)
	}
}

// RecordWrite counts a put or delete.
func (c *Collector) RecordWrite() { c.writes.Add(1) }

// RecordBlockReads counts block I/Os issued by one operation.
func (c *Collector) RecordBlockReads(n int) {
	if n > 0 {
		c.blockReads.Add(int64(n))
	}
}

// RecordPointAdmission counts an admission-control decision for a point
// result.
func (c *Collector) RecordPointAdmission(admitted bool) {
	if admitted {
		c.pointAdmits.Add(1)
	} else {
		c.pointRejects.Add(1)
	}
}

// RecordScanAdmission counts a scan admission: full, partial or none.
func (c *Collector) RecordScanAdmission(admitted, total int) {
	switch {
	case admitted >= total && total > 0:
		c.scanFullAdmits.Add(1)
	case admitted > 0:
		c.scanPartAdmits.Add(1)
	}
}

// EndWindow atomically snapshots and resets the counters.
func (c *Collector) EndWindow() Window {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := Window{
		Points:         c.points.Swap(0),
		Scans:          c.scans.Swap(0),
		Writes:         c.writes.Swap(0),
		ScanLenSum:     c.scanLenSum.Swap(0),
		BlockReads:     c.blockReads.Swap(0),
		RangeGetHits:   c.rangeGetHits.Swap(0),
		RangeScanHits:  c.rangeScanHits.Swap(0),
		PointAdmits:    c.pointAdmits.Swap(0),
		PointRejects:   c.pointRejects.Swap(0),
		ScanFullAdmits: c.scanFullAdmits.Swap(0),
		ScanPartAdmits: c.scanPartAdmits.Swap(0),
	}
	c.totalWindows++
	return w
}

// Windows reports how many windows have closed.
func (c *Collector) Windows() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.totalWindows
}

// Shape carries the LSM-tree parameters of the I/O model (Table 1).
type Shape struct {
	// Levels is L, the number of levels holding data.
	Levels int
	// Runs is r, the number of sorted runs. When observable it should be
	// the live count; 0 falls back to the paper's estimate
	// r = L − 1 + r0max/2.
	Runs int
	// R0Max is the maximum number of L0 runs (the write-stall trigger),
	// used by the fallback estimate of r.
	R0Max int
	// EntriesPerBlock is B.
	EntriesPerBlock float64
	// BloomFPR is the Bloom filter false-positive rate.
	BloomFPR float64
}

// IOPoint returns the estimated I/Os per point lookup: 1 + FPR.
func (s Shape) IOPoint() float64 { return 1 + s.BloomFPR }

// SortedRuns returns r: the live count when known, else the paper's
// estimate L − 1 + r0max/2.
func (s Shape) SortedRuns() float64 {
	if s.Runs > 0 {
		return float64(s.Runs)
	}
	r := float64(s.Levels) - 1 + float64(s.R0Max)/2
	if r < 1 {
		r = 1
	}
	return r
}

// IOScan returns the estimated I/Os per scan of length l: l/B + r, the
// per-run seek cost plus the block traversal cost (§3.5). The r term is an
// upper bound: the engine positions a run lazily, so a run whose keys all lie
// above the scan start costs no block.
func (s Shape) IOScan(l float64) float64 {
	b := s.EntriesPerBlock
	if b <= 0 {
		b = 1
	}
	return l/b + s.SortedRuns()
}

// IOEstimate returns the estimated total block I/Os the window would have
// issued with no cache at all.
func (s Shape) IOEstimate(w Window) float64 {
	return float64(w.Points)*s.IOPoint() + float64(w.Scans)*s.IOScan(w.AvgScanLen())
}

// HitRateEstimate returns h_estimate = 1 − IO_miss/IO_estimate, clamped to
// [0, 1]. With no read traffic it returns 0.
func (s Shape) HitRateEstimate(w Window) float64 {
	est := s.IOEstimate(w)
	if est <= 0 {
		return 0
	}
	h := 1 - float64(w.BlockReads)/est
	if h < 0 {
		return 0
	}
	if h > 1 {
		return 1
	}
	return h
}
