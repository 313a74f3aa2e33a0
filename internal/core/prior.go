package core

import (
	"math"

	"adcache/internal/rl"
	"adcache/internal/stats"
	"adcache/internal/workload"
)

// Prior is the action the controller starts every window from: the setting
// that controlled experiments (§3.6) found best for the nearest calibrated
// workload mix at the nearest calibrated cache share (in log space). point,
// short, long and write are the window's operation shares; share is the
// cache budget over the live data size. The agent learns a bounded residual
// around it (rl.ResidualSpan).
func Prior(point, short, long, write, share float64) rl.Action {
	best, bestMix, bestShare := 0, math.Inf(1), math.Inf(1)
	for i, r := range calibration {
		dMix := math.Hypot(math.Hypot(point-r.point/100, short-r.short/100),
			math.Hypot(long-r.long/100, write-r.write/100))
		dShare := math.Abs(math.Log(share / r.share))
		if dMix < bestMix || dMix == bestMix && dShare < bestShare {
			best, bestMix, bestShare = i, dMix, dShare
		}
	}
	r := calibration[best]
	return rl.Action{
		RangeRatio:     r.ratio,
		PointThreshold: r.threshold,
		ScanA:          r.a,
		ScanB:          r.b,
	}
}

// windowMix splits a window into the prior's operation shares. The window
// counts scans, not their kinds, so its mean length places them between the
// workloads' short and long scan lengths.
func windowMix(w stats.Window) (point, short, long, write float64) {
	ops := float64(max(w.Ops(), 1))
	scan := float64(w.Scans) / ops
	f := clamp01f((w.AvgScanLen() - workload.ShortScanLen) / (workload.LongScanLen - workload.ShortScanLen))
	return float64(w.Points) / ops, scan * (1 - f), scan * f, float64(w.Writes) / ops
}

// calibRow is one controlled experiment's outcome: for a workload mix (in
// percent) at a cache share, the static action — range ratio, point
// threshold, scan a and scan b, as the agent's normalised outputs — with
// the fewest block reads per op.
type calibRow struct {
	point, short, long, write float64
	share                     float64
	ratio, threshold, a, b    float64
}
