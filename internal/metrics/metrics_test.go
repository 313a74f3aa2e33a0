package metrics

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
)

func TestMetricsHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		v      int64
		bucket int
	}{
		{-5, 0}, {0, 0}, {1, 0},
		{2, 1}, {3, 1},
		{4, 2}, {7, 2},
		{8, 3}, {15, 3},
		{1 << 20, 20}, {1<<21 - 1, 20},
		{1<<62 + 1, NumBuckets - 1}, // clamped into the top bucket
	}
	for _, c := range cases {
		if got := bucketFor(c.v); got != c.bucket {
			t.Errorf("bucketFor(%d) = %d, want %d", c.v, got, c.bucket)
		}
	}
	for i := 0; i < NumBuckets-1; i++ {
		if BucketUpper(i)+1 != BucketLower(i+1) {
			t.Errorf("bucket %d upper %d not adjacent to bucket %d lower %d",
				i, BucketUpper(i), i+1, BucketLower(i+1))
		}
		if bucketFor(BucketLower(i+1)) != i+1 || bucketFor(BucketUpper(i)) != i {
			t.Errorf("boundary values of bucket %d misrouted", i)
		}
	}
}

func TestMetricsHistogramQuantiles(t *testing.T) {
	var h Histogram
	if got := h.Snapshot().Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 1000 || s.Max != 1000 {
		t.Fatalf("count=%d max=%d", s.Count, s.Max)
	}
	if s.Sum != 1000*1001/2 {
		t.Fatalf("sum=%d", s.Sum)
	}
	// Log buckets are exact to the bucket: p50 of 1..1000 is 500, which
	// lives in [512,1023)'s predecessor bucket [256,511]. Allow 2x error.
	p50 := s.Quantile(0.5)
	if p50 < 250 || p50 > 1000 {
		t.Errorf("p50 = %v, want within 2x of 500", p50)
	}
	p99 := s.Quantile(0.99)
	if p99 < 512 || p99 > 1000 {
		t.Errorf("p99 = %v, want in [512,1000]", p99)
	}
	if got := s.Quantile(1.0); got != 1000 {
		t.Errorf("p100 = %v, want exact max 1000", got)
	}
	// Quantiles never exceed the observed max even inside the top bucket.
	var h2 Histogram
	h2.Observe(1025) // bucket [1024,2047]
	if got := h2.Snapshot().Quantile(0.99); got > 1025 {
		t.Errorf("p99 = %v exceeds observed max 1025", got)
	}
}

func TestMetricsHistogramMerge(t *testing.T) {
	var a, b Histogram
	for v := int64(1); v <= 100; v++ {
		a.Observe(v)
		b.Observe(v * 1000)
	}
	s := a.Snapshot()
	s.Merge(b.Snapshot())
	if s.Count != 200 {
		t.Fatalf("merged count = %d", s.Count)
	}
	if s.Max != 100_000 {
		t.Fatalf("merged max = %d", s.Max)
	}
	if want := a.Snapshot().Sum + b.Snapshot().Sum; s.Sum != want {
		t.Fatalf("merged sum = %d, want %d", s.Sum, want)
	}
}

func TestMetricsConcurrentObserveSnapshot(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("test_nanos", "concurrent test")
	c := reg.Counter("test_total", "concurrent test")
	var writers sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			for v := int64(0); v < 10_000; v++ {
				h.Observe(seed*1000 + v)
				c.Inc()
			}
		}(int64(i))
	}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := h.Snapshot()
			var n int64
			for _, b := range s.Buckets {
				n += b
			}
			// Snapshots race with in-flight Observes, so bucket totals and
			// the count can skew slightly in either direction — but only by
			// the handful of observations in flight, never wholesale.
			if skew := n - s.Count; skew > 1000 || skew < -1000 {
				t.Errorf("snapshot skew: buckets=%d count=%d", n, s.Count)
				return
			}
			var buf bytes.Buffer
			reg.WritePrometheus(&buf)
		}
	}()
	writers.Wait()
	close(stop)
	<-readerDone
	s := h.Snapshot()
	if s.Count != 40_000 || c.Value() != 40_000 {
		t.Fatalf("count = %d / %d, want 40000", s.Count, c.Value())
	}
}

func TestMetricsRegistryCollisions(t *testing.T) {
	reg := NewRegistry()
	c1 := reg.Counter("ops_total", "ops")
	c2 := reg.Counter("ops_total", "ops")
	if c1 != c2 {
		t.Fatal("same-kind re-registration returned a different counter")
	}
	c1.Inc()
	if c2.Value() != 1 {
		t.Fatal("shared counter not shared")
	}
	mustPanic(t, "histogram over counter", func() { reg.Histogram("ops_total", "oops") })
	reg.Histogram("lat_nanos", "")
	mustPanic(t, "counter over histogram", func() { reg.Counter("lat_nanos", "oops") })

	reg.Collect(func(s *Sink) { s.Gauge("live_gauge", "g", 1) })
	reg.Snapshot() // distinct names: fine
	reg.Collect(func(s *Sink) { s.Gauge("live_gauge", "g", 2) })
	mustPanic(t, "sampled duplicate", func() { reg.Snapshot() })
	reg = NewRegistry()
	reg.Counter("ops_total", "ops")
	reg.Collect(func(s *Sink) { s.Counter("ops_total", "oops", 0) })
	mustPanic(t, "sampled over cell", func() { reg.Snapshot() })
}

// TestMetricsOneGatherPerReader pins the registry's half of the scrape-cost
// rule: every reader renders one gather, and a gather runs each collector
// exactly once however many series it emits.
func TestMetricsOneGatherPerReader(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("lat_nanos", "").Observe(5)
	runs := 0
	reg.Collect(func(s *Sink) {
		runs++
		for i := 0; i < 8; i++ {
			s.Gauge(fmt.Sprintf(`level_files{level="%d"}`, i), "files", float64(i))
		}
	})
	for name, read := range map[string]func(){
		"WritePrometheus": func() { reg.WritePrometheus(io.Discard) },
		"Snapshot":        func() { reg.Snapshot() },
	} {
		runs = 0
		read()
		if runs != 1 {
			t.Errorf("%s ran the collector %d times, want 1", name, runs)
		}
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", what)
		}
	}()
	fn()
}

func TestMetricsPrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("adcache_ops_total", "operations served").Add(42)
	reg.Collect(func(s *Sink) {
		s.Gauge("adcache_range_ratio", "range cache share", 0.375)
		s.Gauge(`lsm_level_files{level="1"}`, "files per level", 7)
		s.Gauge(`lsm_level_files{level="0"}`, "files per level", 3)
	})
	h := reg.Histogram("lsm_get_nanos", "get latency")
	for i := 0; i < 100; i++ {
		h.Observe(1000) // single bucket [512,1023]
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		`# HELP adcache_ops_total operations served`,
		`# TYPE adcache_ops_total counter`,
		`adcache_ops_total 42`,
		`# HELP adcache_range_ratio range cache share`,
		`# TYPE adcache_range_ratio gauge`,
		`adcache_range_ratio 0.375`,
		`# HELP lsm_get_nanos get latency`,
		`# TYPE lsm_get_nanos summary`,
		`lsm_get_nanos{quantile="0.5"} 756`,
		`lsm_get_nanos{quantile="0.9"} 951.2`,
		`lsm_get_nanos{quantile="0.99"} 995.12`,
		`lsm_get_nanos_sum 100000`,
		`lsm_get_nanos_count 100`,
		`lsm_get_nanos_max 1000`,
		`# HELP lsm_level_files files per level`,
		`# TYPE lsm_level_files gauge`,
		`lsm_level_files{level="0"} 3`,
		`lsm_level_files{level="1"} 7`,
		``,
	}, "\n")
	if got := buf.String(); got != want {
		t.Errorf("prometheus output mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestMetricsSnapshotMap(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a_total", "").Add(5)
	reg.Collect(func(s *Sink) {
		s.Gauge("b", "", -3)
		s.Counter("d_total", "", 7)
	})
	reg.Histogram("c_nanos", "").Observe(100)
	snap := reg.Snapshot()
	if snap["a_total"].(int64) != 5 {
		t.Errorf("a_total = %v", snap["a_total"])
	}
	if snap["b"].(float64) != -3 {
		t.Errorf("b = %v", snap["b"])
	}
	if snap["d_total"].(int64) != 7 {
		t.Errorf("d_total = %v", snap["d_total"])
	}
	hs, ok := snap["c_nanos"].(HistogramSummary)
	if !ok || hs.Count != 1 || hs.Max != 100 {
		t.Errorf("c_nanos = %#v", snap["c_nanos"])
	}
}
