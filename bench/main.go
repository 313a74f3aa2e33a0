// Command bench is the repository's one benchmark: four closed-loop
// workloads against the real stack, end-to-end metrics measured with tracing
// off, and per-layer metrics from a traced pass that times the calls into
// each layer from outside. BENCHMARK.json at the repository root names every
// metric; README.md in this directory explains them.
//
//	bash bench/run.sh                                  every workload, both passes
//	bash bench/run.sh --workload embed_read --seed 1 --seconds 12 --trace 0
//	bash bench/run.sh -compare a.json b.json           two recorded sets
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

// e2eDef is an end-to-end metric: its direction and the share of the
// parent's median by which it may get worse. BENCHMARK.json repeats these;
// the smoke test holds the two together.
type e2eDef struct {
	name, unit   string
	higherBetter bool
	bound        float64
}

var e2eMetrics = []e2eDef{
	{"ops_per_s", "1/s", true, 0.25},
	{"get_mean_us", "us", false, 0.25},
	{"setup_s", "s", false, 0.25},
}

// envelope describes the process and host behind a run, with two probes
// taken at start: a machine whose timer or disk invalidates the device model
// is visible in the file.
type envelope struct {
	GitSHA     string  `json:"git_sha"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Sleep2msMs float64 `json:"sleep_2ms_measured_ms"`
	FsyncP50Us float64 `json:"fsync_p50_us"`
	StartedAt  string  `json:"started_at"`
}

func probeHost(work string) (envelope, error) {
	env := envelope{
		GitSHA: "unknown", GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		StartedAt: time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.GitSHA = s.Value
			}
		}
	}
	var sleeps, syncs []float64
	for i := 0; i < 15; i++ {
		start := time.Now()
		time.Sleep(2 * time.Millisecond)
		sleeps = append(sleeps, float64(time.Since(start))/1e6)
	}
	env.Sleep2msMs = median(sleeps)

	if err := os.MkdirAll(work, 0o755); err != nil {
		return env, err
	}
	path := filepath.Join(work, "fsync-probe")
	f, err := os.Create(path)
	if err != nil {
		return env, err
	}
	defer os.Remove(path)
	defer f.Close()
	block := make([]byte, 512)
	for i := 0; i < 25; i++ {
		if _, err := f.Write(block); err != nil {
			return env, err
		}
		start := time.Now()
		if err := f.Sync(); err != nil {
			return env, err
		}
		syncs = append(syncs, float64(time.Since(start))/1e3)
	}
	env.FsyncP50Us = median(syncs)
	return env, nil
}

// resultSet is a result-set file: runs appended by one or more invocations.
type resultSet struct {
	Runs []*runResult `json:"runs"`
}

func loadSet(path string) (resultSet, error) {
	var set resultSet
	b, err := os.ReadFile(path)
	if err != nil {
		return set, err
	}
	return set, json.Unmarshal(b, &set)
}

// appendSet adds runs to the result-set file at path, creating it if absent.
func appendSet(path string, runs []*runResult) error {
	set, err := loadSet(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	set.Runs = append(set.Runs, runs...)
	b, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func printMetrics(r *runResult) {
	pass := "end-to-end, tracing off"
	if r.Trace == 1 {
		pass = "per-layer, tracing on"
	}
	fmt.Printf("# %s seed=%d window=%gs (%s) attempted=%d failed=%d\n",
		r.Workload, r.Seed, r.Seconds, pass, r.Attempted, r.Failed)
	for _, name := range r.order {
		m := r.Metrics[name]
		line := fmt.Sprintf("%-34s %16.6g %s", name, m.Value, m.Unit)
		if n, ok := r.Samples[name]; ok {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Println(line)
	}
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload to run (default: every workload, both passes)")
		seed    = flag.Int64("seed", 1, "workload seed; the same seed gives the same operations")
		seconds = flag.Int("seconds", 12, "length of each measured window in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced window")
		out     = flag.String("out", "", "result-set file to append this invocation's runs to")
		work    = flag.String("work", ".bench_build/work", "directory for the stores (inside the checkout)")
		traces  = flag.String("traces", "bench/out", "directory for trace-<workload>.jsonl")
		compare = flag.Bool("compare", false, "compare two result-set files: -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			return errors.New("usage: -compare a.json b.json")
		}
		return compareSets(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("-seconds must be at least 1 and -trace 0 or 1")
	}

	type pass struct {
		def    workloadDef
		traced bool
	}
	var passes []pass
	if *name == "" {
		for _, def := range workloads {
			passes = append(passes, pass{def, false}, pass{def, true})
		}
	} else {
		def, ok := findWorkload(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		passes = []pass{{def, *trace == 1}}
	}

	// Each process gets its own work directory, removed at exit.
	workDir := filepath.Join(*work, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(workDir)
	env, err := probeHost(workDir)
	if err != nil {
		return fmt.Errorf("host probes: %w", err)
	}
	fmt.Printf("# go=%s gomaxprocs=%d nproc=%d git=%s sleep(2ms)=%.3gms fsync_p50=%.4gus\n",
		env.GoVersion, env.GOMAXPROCS, env.NProc, env.GitSHA, env.Sleep2msMs, env.FsyncP50Us)
	if err := os.MkdirAll(*traces, 0o755); err != nil {
		return err
	}

	var runs []*runResult
	var failed error
	for _, p := range passes {
		res, err := runWorkload(runConfig{
			def: p.def, seed: *seed, window: time.Duration(*seconds) * time.Second,
			traced: p.traced, setups: 3, setupFor: 2 * time.Second, work: workDir, out: *traces,
		})
		if res == nil {
			return fmt.Errorf("%s: %w", p.def.name, err)
		}
		if err != nil {
			failed = errors.Join(failed, fmt.Errorf("%s: %w", p.def.name, err))
		}
		res.Env = env
		printMetrics(res)
		runs = append(runs, res)
	}
	if *out != "" {
		if err := appendSet(*out, runs); err != nil {
			return err
		}
	}
	if *name != "" {
		// The benchmark contract's result: one JSON object, last on stdout.
		res := runs[0]
		line, err := json.Marshal(map[string]any{
			"correct": res.Failed == 0, "attempted": res.Attempted, "failed": res.Failed,
			"metrics": res.Metrics,
		})
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	return failed
}

// quartiles returns the first and third quartile of v as Python's
// statistics.quantiles(v, n=4) does (the benchmark contract's definition).
func quartiles(v []float64) (q1, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}
