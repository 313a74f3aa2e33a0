package metrics

import (
	"fmt"
	"io"
	"strconv"
)

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4). Counters and gauges become single
// samples; histograms become summaries with p50/p90/p99 quantile series
// plus _sum, _count and _max samples.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var lastBase string
	for _, e := range r.gather() {
		base := baseName(e.name)
		if base != lastBase {
			if e.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", base, e.help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, e.typ); err != nil {
				return err
			}
			lastBase = base
		}
		if e.hist != nil {
			if err := writePromHistogram(w, e); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", e.name, formatFloat(e.value)); err != nil {
			return err
		}
	}
	return nil
}

func writePromHistogram(w io.Writer, e sample) error {
	s := e.hist
	for _, q := range [...]struct {
		label string
		q     float64
	}{{"0.5", 0.50}, {"0.9", 0.90}, {"0.99", 0.99}} {
		name := withLabel(e.name, `quantile="`+q.label+`"`)
		if _, err := fmt.Fprintf(w, "%s %s\n", name, formatFloat(s.Quantile(q.q))); err != nil {
			return err
		}
	}
	base := baseName(e.name)
	labels := e.name[len(base):]
	if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", base, labels, s.Sum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_count%s %d\n", base, labels, s.Count); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_max%s %d\n", base, labels, s.Max)
	return err
}

// formatFloat renders a value the way Prometheus clients expect: integers
// without an exponent or trailing zeros, everything else in shortest form.
func formatFloat(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
