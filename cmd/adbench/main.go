// Command adbench regenerates the paper's tables and figures against the
// from-scratch LSM engine and all six cache strategies, and runs the repo's
// self-checking system benchmarks. Every run is one -exp name.
//
// Usage:
//
//	adbench -exp fig7                 # one experiment at default scale
//	adbench -exp all -scale quick     # every paper experiment, small
//	adbench -exp fig8 -keys 100000 -ops 200000
//
// Paper experiments (internal/harness.Experiments): table2 fig1 fig6 fig7
// fig8 (includes Table 4) fig9 fig10 fig11a fig11b ablations — the members
// of all — plus scaling and calibrate, the controlled-experiment sweep
// whose output rows are internal/core's prior table:
//
//	adbench -exp calibrate > calibration.txt
//
// The system benchmarks write their results as JSON to -out (default
// BENCH_<NAME>.json) with -json, and exit non-zero when their gate fails:
//
//   - disk: the on-disk persistence benchmark on a real temporary directory
//     through OSFS, once per block codec (none, flate): compression ratio,
//     cache hit-rate uplift and the physical-byte budget check.
//
//   - wire: the data plane on a real on-disk store behind loopback HTTP,
//     a scan-heavy mix under JSON, the binary codec, and the codec plus
//     write coalescing. Fails unless codec+coalescing sustains 2x the JSON
//     throughput at equal-or-better read p99 with zero client errors.
//
//   - chaos: a 3-node fleet and manager under a seeded fault timeline, held
//     to hard resilience gates.
//
//     adbench -exp disk -json
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"adcache/internal/harness"
)

// options are adbench's flags.
type options struct {
	exp, scale, csvDir, out string
	keys, values, ops       int
	seed                    int64
	json                    bool
}

// register declares adbench's flags on fs.
func (o *options) register(fs *flag.FlagSet) {
	fs.StringVar(&o.exp, "exp", "all", "experiment to run (see the command doc); all runs every paper experiment")
	fs.StringVar(&o.scale, "scale", "default", "scale preset of the paper experiments: quick|default")
	fs.IntVar(&o.keys, "keys", 0, "override key-space size")
	fs.IntVar(&o.values, "values", 0, "override value size in bytes")
	fs.IntVar(&o.ops, "ops", 0, "override measured ops (and warm-up ops)")
	fs.Int64Var(&o.seed, "seed", 0, "override workload seed")
	fs.StringVar(&o.csvDir, "csv", "", "also write raw results as CSV into this directory")
	fs.BoolVar(&o.json, "json", false, "write a system benchmark's results as JSON to -out")
	fs.StringVar(&o.out, "out", "", "JSON output file of a system benchmark (default BENCH_<NAME>.json)")
}

// harnessScale is the paper experiments' scale: the -scale preset with the
// -keys, -values, -ops and -seed overrides applied.
func (o options) harnessScale() harness.Scale {
	sc := harness.DefaultScale()
	if o.scale == "quick" {
		sc = harness.QuickScale()
	}
	if o.keys > 0 {
		sc.NumKeys = o.keys
	}
	if o.values > 0 {
		sc.ValueSize = o.values
	}
	if o.ops > 0 {
		sc.MeasureOps = o.ops
		sc.WarmOps = o.ops
		sc.PhaseOps = o.ops
	}
	if o.seed != 0 {
		sc.Seed = o.seed
	}
	return sc
}

// orDefault returns n, or def when n is unset.
func orDefault(n, def int) int {
	if n > 0 {
		return n
	}
	return def
}

// experiment is one -exp name.
type experiment struct {
	name string
	all  bool   // run by -exp all
	out  string // default -out file of a system benchmark
	run  func(o options, out string) error
}

// experiments is every -exp name: the paper's evaluation, then the system
// benchmarks.
func experiments() []experiment {
	var exps []experiment
	for _, e := range harness.Experiments {
		exps = append(exps, experiment{name: e.Name, all: e.All, run: func(o options, _ string) error {
			sc := o.harnessScale()
			start := time.Now()
			if e.Scaled {
				fmt.Printf("== %s (keys=%d values=%dB ops=%d) ==\n", e.Name, sc.NumKeys, sc.ValueSize, sc.MeasureOps)
			} else {
				fmt.Printf("== %s ==\n", e.Name)
			}
			if err := e.Run(sc, o.csvDir); err != nil {
				return err
			}
			fmt.Printf("(%s took %s)\n\n", e.Name, time.Since(start).Round(time.Millisecond))
			return nil
		}})
	}
	return append(exps, []experiment{
		{name: "disk", out: "BENCH_DISK.json", run: func(o options, out string) error {
			return runDiskBench(orDefault(o.keys, 100_000), o.json, out)
		}},
		{name: "wire", out: "BENCH_WIRE.json", run: func(o options, out string) error {
			return runWireBench(o.keys, o.ops, o.json, out)
		}},
		{name: "chaos", out: "BENCH_CHAOS.json", run: func(o options, out string) error {
			return runChaosBench(o.seed, o.json, out)
		}},
	}...)
}

func main() {
	var o options
	o.register(flag.CommandLine)
	flag.Parse()

	var run []experiment
	for _, e := range experiments() {
		if e.name == o.exp || (o.exp == "all" && e.all) {
			run = append(run, e)
		}
	}
	if len(run) == 0 {
		fmt.Fprintf(os.Stderr, "adbench: unknown experiment %q\n", o.exp)
		os.Exit(1)
	}
	for _, e := range run {
		out := o.out
		if out == "" {
			out = e.out
		}
		if err := e.run(o, out); err != nil {
			fmt.Fprintln(os.Stderr, "adbench:", err)
			os.Exit(1)
		}
	}
}
