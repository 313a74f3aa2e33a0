package main

import (
	"errors"
	"fmt"
	"io"
)

var errWorse = errors.New("at least one metric is worse than its bound allows")

// compareSets prints one row per workload and end-to-end metric: both
// medians, their ratio with its base, each side's run-to-run spread
// (interquartile range over median), the bound, and a verdict. A metric whose
// spread exceeds its bound is unresolved, not unchanged. It returns errWorse
// if any metric's median got worse by more than its bound.
func compareSets(w io.Writer, pathA, pathB string) error {
	a, err := loadSet(pathA)
	if err != nil {
		return err
	}
	b, err := loadSet(pathB)
	if err != nil {
		return err
	}
	values := func(set resultSet, workload, metric string) []float64 {
		var v []float64
		for _, r := range set.Runs {
			if m, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == 0 {
				v = append(v, m.Value)
			}
		}
		return v
	}
	spread := func(v []float64) float64 {
		q1, q3 := quartiles(v)
		return ratio(q3-q1, median(v))
	}
	fmt.Fprintf(w, "%-15s %-12s %4s %12s %12s %16s %8s %8s %6s  %s\n",
		"workload", "metric", "runs", "a", "b", "b/a (base a)", "spread_a", "spread_b", "bound", "verdict")
	worse := false
	for _, def := range workloads {
		for _, e := range e2eMetrics {
			va, vb := values(a, def.name, e.name), values(b, def.name, e.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			change := ratio(mb-ma, ma) // share of a's median by which b is worse
			if e.higherBetter {
				change = -change
			}
			sa, sb := spread(va), spread(vb)
			verdict := "ok"
			switch {
			case change > e.bound:
				verdict, worse = "worse", true
			case max(sa, sb) > e.bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-15s %-12s %2d/%-2d %12.6g %12.6g %7.4f of %-7.5g %8.4f %8.4f %6.2f  %s\n",
				def.name, e.name, len(va), len(vb), ma, mb, ratio(mb, ma), ma, sa, sb, e.bound, verdict)
		}
	}
	if worse {
		return errWorse
	}
	return nil
}
