package harness

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Experiment is one entry of the evaluation: a figure, a table or a study.
type Experiment struct {
	Name string
	// All marks the experiments "adbench -exp all" runs, in table order.
	All bool
	// Run executes the experiment at sc: per-cell progress to stderr, the
	// result table to stdout and, when csvDir is not empty, raw results as
	// CSV into it.
	Run func(sc Scale, csvDir string) error
}

// Experiments is every experiment of the evaluation, in the order
// "adbench -exp all" runs them.
var Experiments = []Experiment{
	{"table2", true, func(Scale, string) error {
		fmt.Print(FormatTable2(RunTable2()))
		return nil
	}},
	{"fig1", true, func(sc Scale, _ string) error {
		cells, err := RunFig1(sc)
		if err != nil {
			return err
		}
		fmt.Print(FormatFig1(cells))
		return nil
	}},
	{"fig6", true, func(sc Scale, _ string) error {
		rows, err := RunFig6(sc)
		if err != nil {
			return err
		}
		fmt.Print(FormatFig6(rows))
		return nil
	}},
	{"fig7", true, func(sc Scale, csvDir string) error {
		cells, err := RunFig7(sc, func(c Cell) {
			progress("  %-12s cache=%4.0f%% %-20s hit=%.3f reads/op=%.2f\n",
				c.Workload, c.CacheFrac*100, c.Strategy, c.Result.HitRate, c.Result.ReadsPerOp())
		})
		if err != nil {
			return err
		}
		fmt.Print(FormatFig7(cells))
		return writeCSV(csvDir, "fig7.csv", func(w io.Writer) error { return WriteCellsCSV(w, cells) })
	}},
	{"fig8", true, func(sc Scale, csvDir string) error {
		prs, err := RunFig8(sc, func(pr PhaseResult) {
			progress("  phase %s %-20s qps=%.0f hit=%.3f\n", pr.Phase, pr.Strategy, pr.Result.QPS, pr.Result.HitRate)
		})
		if err != nil {
			return err
		}
		fmt.Print(FormatFig8(prs))
		return writeCSV(csvDir, "fig8.csv", func(w io.Writer) error { return WritePhasesCSV(w, prs) })
	}},
	{"fig9", true, func(sc Scale, csvDir string) error {
		cells, err := RunFig9(sc, func(c Cell) {
			progress("  skew=%.1f %-20s hit=%.3f\n", c.Skew, c.Strategy, c.Result.HitRate)
		})
		if err != nil {
			return err
		}
		fmt.Print(FormatFig9(cells))
		return writeCSV(csvDir, "fig9.csv", func(w io.Writer) error { return WriteCellsCSV(w, cells) })
	}},
	{"fig10", true, func(sc Scale, csvDir string) error {
		wp, ap, pp, err := RunFig10(sc)
		if err != nil {
			return err
		}
		fmt.Print(FormatFig10(wp, ap, pp))
		all := append(append(append([]Fig10Series{}, wp...), ap...), pp)
		return writeCSV(csvDir, "fig10.csv", func(w io.Writer) error { return WriteTraceCSV(w, all) })
	}},
	{"fig11a", true, func(sc Scale, _ string) error {
		pts, err := RunFig11a(sc, func(p Fig11aPoint) {
			progress("  clients=%d per-client=%.0f\n", p.Clients, p.PerClientQPS)
		})
		if err != nil {
			return err
		}
		fmt.Print(FormatFig11a(pts))
		return nil
	}},
	{"fig11b", true, func(sc Scale, _ string) error {
		series, err := RunFig11b(sc, nil)
		if err != nil {
			return err
		}
		fmt.Print(FormatFig11b(series))
		return nil
	}},
	{"ablations", true, func(sc Scale, _ string) error {
		rows, err := RunAblations(sc, func(r AblationRow) {
			progress("  %s/%s hit=%.3f\n", r.Study, r.Variant, r.Result.HitRate)
		})
		if err != nil {
			return err
		}
		fmt.Print(FormatAblations(rows))
		return nil
	}},
	{"scaling", false, func(Scale, string) error {
		rows, err := RunScaling(nil, func(r ScalingRow) {
			progress("  keys=%d %-12s %.3f→%.3f\n", r.NumKeys, r.Strategy, r.HitBefore, r.HitAfter)
		})
		if err != nil {
			return err
		}
		fmt.Print(FormatScaling(rows))
		return nil
	}},
	// calibrate prints internal/core's prior table (calibration.go).
	{"calibrate", false, func(sc Scale, _ string) error {
		cells, err := RunCalibration(sc, func(c CalibrationCell) {
			progress("  %-12s cache=%4.0f%% %+v reads/op=%.3f (%d runs)\n",
				c.Mix.Name, c.CacheFrac*100, c.Action, c.ReadsPerOp, c.Runs)
		})
		if err != nil {
			return err
		}
		fmt.Print(FormatCalibration(cells))
		return nil
	}},
}

func progress(format string, args ...any) { fmt.Fprintf(os.Stderr, format, args...) }

// writeCSV writes one CSV artifact into dir; an empty dir writes nothing.
func writeCSV(dir, name string, write func(io.Writer) error) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
