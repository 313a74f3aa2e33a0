package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Registry is a named collection of metrics. Metric names follow the
// Prometheus convention and may carry a fixed label set inline, e.g.
// `cache_shard_hits_total{cache="block",shard="3"}`.
//
// There are three ways in. Counter and Histogram return a cell the owner
// increments where the event happens; they are get-or-create, so asking
// twice for the same name returns the same cell (asking for it as the other
// type panics — that is always a programming error). Collect registers a
// callback for everything that is sampled rather than counted: it runs once
// per gather, takes one snapshot of its component and emits every series
// derived from it. Every reader — WritePrometheus, Snapshot, the histogram
// table — renders one gather.
type Registry struct {
	mu         sync.RWMutex
	cells      map[string]*cell
	collectors []func(*Sink)
}

// cell is one registered counter or histogram (exactly one is set).
type cell struct {
	name, help string
	counter    *Counter
	hist       *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{cells: make(map[string]*cell)}
}

// cell returns the entry registered under name, creating it if the name is
// free.
func (r *Registry) cell(name, help string, hist bool) *cell {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.cells[name]
	switch {
	case !ok && hist:
		c = &cell{name: name, help: help, hist: &Histogram{}}
		r.cells[name] = c
	case !ok:
		c = &cell{name: name, help: help, counter: &Counter{}}
		r.cells[name] = c
	case (c.hist != nil) != hist:
		panic(fmt.Sprintf("metrics: %q registered as both a counter and a histogram", name))
	}
	return c
}

// Counter returns the counter registered under name, creating it if new.
func (r *Registry) Counter(name, help string) *Counter { return r.cell(name, help, false).counter }

// Histogram returns the histogram registered under name, creating it if new.
func (r *Registry) Histogram(name, help string) *Histogram { return r.cell(name, help, true).hist }

// Collect registers fn to run once per gather. A component calls it once
// and emits, from one snapshot of itself, every series it does not keep in
// a cell: gauges, and counters whose home is a field under the component's
// own lock. fn runs on the gathering goroutine with no registry lock held
// and may take the component's locks, so a gather must not be started from
// inside the component's own critical sections.
func (r *Registry) Collect(fn func(*Sink)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// Sink receives the series a Collect callback samples.
type Sink struct {
	samples []sample
}

// Counter emits the current value of a cumulative count.
func (s *Sink) Counter(name, help string, v int64) {
	s.samples = append(s.samples, sample{name: name, help: help, typ: "counter", value: float64(v)})
}

// Gauge emits the current value of something that can go up and down.
func (s *Sink) Gauge(name, help string, v float64) {
	s.samples = append(s.samples, sample{name: name, help: help, typ: "gauge", value: v})
}

// sample is one series at gather time. hist is set for summaries, value
// for everything else.
type sample struct {
	name, help string
	typ        string // Prometheus exposition type
	value      float64
	hist       *HistogramSnapshot
}

// gather reads every cell and runs every collector once, returning the
// samples ordered by name (label-stripped base name first, so all series
// of one metric are adjacent as Prometheus requires). A name emitted twice
// is a programming error and panics.
func (r *Registry) gather() []sample {
	r.mu.RLock()
	sink := Sink{samples: make([]sample, 0, len(r.cells))}
	for _, c := range r.cells {
		if c.hist != nil {
			h := c.hist.Snapshot()
			sink.samples = append(sink.samples, sample{name: c.name, help: c.help, typ: "summary", hist: &h})
		} else {
			sink.Counter(c.name, c.help, c.counter.Value())
		}
	}
	collectors := r.collectors[:len(r.collectors):len(r.collectors)]
	r.mu.RUnlock()
	for _, fn := range collectors {
		fn(&sink)
	}
	out := sink.samples
	sort.Slice(out, func(i, j int) bool {
		bi, bj := baseName(out[i].name), baseName(out[j].name)
		if bi != bj {
			return bi < bj
		}
		return out[i].name < out[j].name
	})
	for i := 1; i < len(out); i++ {
		if out[i].name == out[i-1].name {
			panic(fmt.Sprintf("metrics: series %q emitted twice", out[i].name))
		}
	}
	return out
}

// baseName strips an inline label set from a metric name.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// withLabel appends one label=value pair to a (possibly already labeled)
// metric name.
func withLabel(name, label string) string {
	if strings.HasSuffix(name, "}") {
		return name[:len(name)-1] + "," + label + "}"
	}
	return name + "{" + label + "}"
}

// HistogramSummary is the exported JSON shape of one histogram.
type HistogramSummary struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Max   int64   `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Summarize reduces a snapshot to the standard summary quantiles.
func Summarize(s HistogramSnapshot) HistogramSummary {
	return HistogramSummary{
		Count: s.Count,
		Sum:   s.Sum,
		Max:   s.Max,
		Mean:  s.Mean(),
		P50:   s.Quantile(0.50),
		P90:   s.Quantile(0.90),
		P99:   s.Quantile(0.99),
	}
}

// Snapshot returns every metric's current value keyed by name: counters as
// int64, gauges as float64, histograms as HistogramSummary. This is the
// payload served under /debug/vars.
func (r *Registry) Snapshot() map[string]interface{} {
	out := make(map[string]interface{})
	for _, s := range r.gather() {
		switch {
		case s.hist != nil:
			out[s.name] = Summarize(*s.hist)
		case s.typ == "counter":
			out[s.name] = int64(s.value)
		default:
			out[s.name] = s.value
		}
	}
	return out
}

// EachHistogram calls fn for every registered histogram in name order.
func (r *Registry) EachHistogram(fn func(name string, s HistogramSnapshot)) {
	for _, s := range r.gather() {
		if s.hist != nil {
			fn(s.name, *s.hist)
		}
	}
}
