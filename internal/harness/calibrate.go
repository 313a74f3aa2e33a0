package harness

import (
	"fmt"
	"strings"

	"adcache"
	"adcache/internal/rl"
	"adcache/internal/workload"
)

// CalibrationMixes are the representative workloads the prior is calibrated
// on: the paper's four static mixes, the read-only and scan-only blends
// between them, two write-bearing mixes (Figure 9's update-heavy mix and a
// write-dominated one), and Figure 11b's long-scan-heavy mix with a quarter
// point lookups.
func CalibrationMixes() []NamedMix {
	return append(StaticWorkloads(),
		NamedMix{"ReadMixed", workload.Mix{GetPct: 50, ShortScanPct: 30, LongScanPct: 20}},
		NamedMix{"ScanMixed", workload.Mix{ShortScanPct: 50, LongScanPct: 50}},
		NamedMix{"UpdateHeavy", workload.Mix{GetPct: 25, ShortScanPct: 25, WritePct: 50}},
		NamedMix{"WriteHeavy", workload.Mix{GetPct: 10, ShortScanPct: 5, WritePct: 85}},
		NamedMix{"LongScanHeavy", fig11bMix},
	)
}

// calibrationGrid holds the values each action dimension is swept over, in
// the agent's normalised units: range ratio; point threshold (× the
// strategy's PointThresholdScale: scores 0 to 0.01, denser near 0 where
// one-off keys' scores sit); scan a (× MaxScanLen: 1, 17 and 65 keys);
// scan b.
var calibrationGrid = [4][]float64{
	{0, 0.25, 0.5, 0.75, 1},
	{0, 0.1, 0.25, 0.5, 1},
	{0, 0.125, 0.5},
	{0, 0.25, 0.5, 1},
}

// calibrationTie is the relative spread of block reads per op within which
// two settings count as tied; the tie goes to fewer range-cache evictions
// per op, the admission work the read count does not see.
const calibrationTie = 0.01

// CalibrationCell is one controlled experiment's outcome: the winning static
// action for a mix at a cache fraction, its score, and how many settings
// were measured to find it.
type CalibrationCell struct {
	Mix            NamedMix
	CacheFrac      float64
	Action         rl.Action
	ReadsPerOp     float64
	EvictionsPerOp float64
	Runs           int
}

// RunCalibration sweeps every calibration mix at every Figure 7 cache size.
func RunCalibration(sc Scale, report func(CalibrationCell)) ([]CalibrationCell, error) {
	return Calibrate(sc, CalibrationMixes(), CacheFracs(), report)
}

// Calibrate runs the controlled experiments behind the prior (§3.6: targets
// "obtained through controlled experiments"). For each mix and cache
// fraction it measures static AdCache settings — pinned with
// core.AdCache.Pin, learner idle — by block reads per op after the scale's
// warm-up, and keeps the best. The search is coordinate descent over
// calibrationGrid from the controller's initial parameters, repeated until a
// pass changes nothing (at most four passes), skipping dimensions the mix
// cannot observe (the threshold without point lookups, a and b without
// scans). Every run is deterministic, so the
// result is a pure function of the scale.
func Calibrate(sc Scale, mixes []NamedMix, fracs []float64, report func(CalibrationCell)) ([]CalibrationCell, error) {
	var cells []CalibrationCell
	for _, m := range mixes {
		for _, frac := range fracs {
			cell, err := calibrateCell(sc, m, frac)
			if err != nil {
				return nil, fmt.Errorf("calibrate %s at %.0f%%: %w", m.Name, frac*100, err)
			}
			cells = append(cells, cell)
			if report != nil {
				report(cell)
			}
		}
	}
	return cells, nil
}

type calibScore struct{ reads, evictions float64 }

func calibrateCell(sc Scale, m NamedMix, frac float64) (CalibrationCell, error) {
	scores := map[[4]float64]calibScore{}
	measure := func(v [4]float64) (calibScore, error) {
		if s, ok := scores[v]; ok {
			return s, nil
		}
		r, err := NewRunner(Config{
			NumKeys: sc.NumKeys, ValueSize: sc.ValueSize,
			CacheFrac: frac, Strategy: adcache.StrategyAdCache, Seed: sc.Seed,
		})
		if err != nil {
			return calibScore{}, err
		}
		defer r.Close()
		r.DB.AdCache().Pin(rl.Action{RangeRatio: v[0], PointThreshold: v[1], ScanA: v[2], ScanB: v[3]})
		if err := r.Warm(m.Mix, sc.WarmOps); err != nil {
			return calibScore{}, err
		}
		before := r.DB.CacheCounters().RangeEvictions
		res, err := r.Run(m.Mix, sc.MeasureOps)
		if err != nil {
			return calibScore{}, err
		}
		s := calibScore{res.ReadsPerOp(), float64(r.DB.CacheCounters().RangeEvictions-before) / float64(res.Ops)}
		scores[v] = s
		return s, nil
	}

	relevant := [4]bool{
		true,
		m.Mix.GetPct > 0,
		m.Mix.ShortScanPct+m.Mix.LongScanPct > 0,
		m.Mix.ShortScanPct+m.Mix.LongScanPct > 0,
	}
	best := [4]float64{0.5, 0, 0.125, 0.5} // the controller's initial parameters
	for pass, prev := 0, [4]float64{-1}; pass < 4 && best != prev; pass++ {
		prev = best
		for dim, values := range calibrationGrid {
			if !relevant[dim] {
				continue
			}
			cands := make([][4]float64, len(values))
			got := make([]calibScore, len(values))
			minReads := -1.0
			for i, v := range values {
				cands[i] = best
				cands[i][dim] = v
				s, err := measure(cands[i])
				if err != nil {
					return CalibrationCell{}, err
				}
				got[i] = s
				if minReads < 0 || s.reads < minReads {
					minReads = s.reads
				}
			}
			pick := -1
			for i, s := range got {
				if s.reads <= minReads*(1+calibrationTie) && (pick < 0 || s.evictions < got[pick].evictions) {
					pick = i
				}
			}
			best = cands[pick]
		}
	}
	s := scores[best]
	return CalibrationCell{
		Mix: m, CacheFrac: frac,
		Action:     rl.Action{RangeRatio: best[0], PointThreshold: best[1], ScanA: best[2], ScanB: best[3]},
		ReadsPerOp: s.reads, EvictionsPerOp: s.evictions, Runs: len(scores),
	}, nil
}

// FormatCalibration renders the sweep as the rows of internal/core's
// calibration table, ready to paste, each annotated with its score.
func FormatCalibration(cells []CalibrationCell) string {
	var b strings.Builder
	b.WriteString("Calibration — best static action per mix and cache share (rows of internal/core/calibration.go)\n")
	b.WriteString("\t// point short long write  share  ratio thr  a      b\n")
	for _, c := range cells {
		m, a := c.Mix.Mix, c.Action
		fmt.Fprintf(&b, "\t{%d, %d, %d, %d, %.2f, %g, %g, %g, %g}, // %s: %.3f reads/op, %.3f range evictions/op, %d runs\n",
			m.GetPct, m.ShortScanPct, m.LongScanPct, m.WritePct, c.CacheFrac,
			a.RangeRatio, a.PointThreshold, a.ScanA, a.ScanB,
			c.Mix.Name, c.ReadsPerOp, c.EvictionsPerOp, c.Runs)
	}
	return b.String()
}
