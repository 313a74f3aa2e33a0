package stats

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestWindowAccumulationAndReset(t *testing.T) {
	var c Collector
	c.RecordPoint(true)
	c.RecordPoint(false)
	c.RecordScan(16, true)
	c.RecordScan(64, false)
	c.RecordWrite()
	c.RecordBlockReads(7)

	w := c.EndWindow()
	if w.Points != 2 || w.Scans != 2 || w.Writes != 1 {
		t.Fatalf("op counts = %+v", w)
	}
	if w.ScanLenSum != 80 || w.AvgScanLen() != 40 {
		t.Fatalf("scan lengths = %d avg %f", w.ScanLenSum, w.AvgScanLen())
	}
	if w.BlockReads != 7 {
		t.Fatalf("io = %+v", w)
	}
	if w.RangeGetHits != 1 || w.RangeScanHits != 1 {
		t.Fatalf("hits = %+v", w)
	}
	if w.Ops() != 5 {
		t.Fatalf("Ops = %d", w.Ops())
	}

	// Counters reset after the window closes.
	w2 := c.EndWindow()
	if w2.Ops() != 0 || w2.BlockReads != 0 {
		t.Fatalf("second window not empty: %+v", w2)
	}
}

func TestIOModelMatchesPaperFormula(t *testing.T) {
	s := Shape{Levels: 3, R0Max: 8, EntriesPerBlock: 4, BloomFPR: 0.01}
	// IO_point = 1 + FPR.
	if got := s.IOPoint(); math.Abs(got-1.01) > 1e-9 {
		t.Fatalf("IOPoint = %f", got)
	}
	// Fallback runs estimate: r = L - 1 + r0max/2 = 3 - 1 + 4 = 6.
	if got := s.SortedRuns(); got != 6 {
		t.Fatalf("SortedRuns = %f", got)
	}
	// IO_scan(l=16) = 16/4 + 6 = 10.
	if got := s.IOScan(16); math.Abs(got-10) > 1e-9 {
		t.Fatalf("IOScan(16) = %f", got)
	}
	// Live run count overrides the estimate.
	s.Runs = 2
	if got := s.IOScan(16); math.Abs(got-6) > 1e-9 {
		t.Fatalf("IOScan with live runs = %f", got)
	}
}

func TestIOEstimateAndHitRate(t *testing.T) {
	s := Shape{Levels: 2, Runs: 2, EntriesPerBlock: 8, BloomFPR: 0}
	w := Window{Points: 100, Scans: 10, ScanLenSum: 160} // avg scan len 16
	// IO_est = 100*1 + 10*(16/8 + 2) = 100 + 40 = 140.
	if got := s.IOEstimate(w); math.Abs(got-140) > 1e-9 {
		t.Fatalf("IOEstimate = %f", got)
	}
	w.BlockReads = 70
	if got := s.HitRateEstimate(w); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("HitRateEstimate = %f", got)
	}
	// More reads than the estimate clamps to 0, not negative.
	w.BlockReads = 1000
	if got := s.HitRateEstimate(w); got != 0 {
		t.Fatalf("clamped HitRateEstimate = %f", got)
	}
	// No traffic → 0.
	if got := s.HitRateEstimate(Window{}); got != 0 {
		t.Fatalf("empty HitRateEstimate = %f", got)
	}
}

func TestHitRateBounds(t *testing.T) {
	f := func(points, scans, scanLen, reads uint16) bool {
		s := Shape{Levels: 3, R0Max: 8, EntriesPerBlock: 16, BloomFPR: 0.01}
		w := Window{
			Points:     int64(points),
			Scans:      int64(scans),
			ScanLenSum: int64(scanLen),
			BlockReads: int64(reads),
		}
		h := s.HitRateEstimate(w)
		return h >= 0 && h <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentRecording(t *testing.T) {
	var c Collector
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.RecordPoint(i%2 == 0)
				c.RecordScan(16, false)
				c.RecordWrite()
				c.RecordBlockReads(1)
			}
		}()
	}
	wg.Wait()
	w := c.EndWindow()
	if w.Points != 8000 || w.Scans != 8000 || w.Writes != 8000 || w.BlockReads != 8000 {
		t.Fatalf("counts = %+v", w)
	}
}
