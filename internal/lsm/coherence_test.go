package lsm_test

import (
	"fmt"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"adcache/internal/core"
	"adcache/internal/lsm"
	"adcache/internal/vfs"
)

// strategyCase builds one of the seven cache strategies with a byte budget.
// gets/scans say whether it serves repeated point lookups / scans from a
// result cache.
type strategyCase struct {
	name        string
	new         func(t *testing.T, capacity int64) lsm.CacheStrategy
	gets, scans bool
}

func rangeOnly(policy string) func(*testing.T, int64) lsm.CacheStrategy {
	return func(_ *testing.T, capacity int64) lsm.CacheStrategy {
		return core.NewRangeOnly(capacity, policy)
	}
}

var strategyCases = []strategyCase{
	{"AdCache", func(t *testing.T, capacity int64) lsm.CacheStrategy {
		a := core.New(core.Config{Capacity: capacity})
		t.Cleanup(a.Close)
		return a
	}, true, true},
	{"Block", func(_ *testing.T, capacity int64) lsm.CacheStrategy { return core.NewBlockOnly(capacity) }, false, false},
	{"KV", func(_ *testing.T, capacity int64) lsm.CacheStrategy { return core.NewKVOnly(capacity) }, true, false},
	{"Range", rangeOnly("lru"), true, true},
	{"Range+LeCaR", rangeOnly("lecar"), true, true},
	{"Range+Cacheus", rangeOnly("cacheus"), true, true},
	{"None", func(*testing.T, int64) lsm.CacheStrategy { return lsm.NoCache{} }, false, false},
}

// resultHits sums the counters a result-cache hit bumps.
func resultHits(s lsm.CacheStrategy) int64 {
	c := s.Counters()
	return c.KVHits + c.RangeGetHits + c.RangeScanHits
}

// gateFS parks the next table read after arm() inside the device call, until
// release is closed — where a reader on a real drive spends its time.
type gateFS struct {
	vfs.FS
	armed   atomic.Bool
	parked  chan struct{}
	release chan struct{}
}

func (g *gateFS) arm() {
	g.parked, g.release = make(chan struct{}), make(chan struct{})
	g.armed.Store(true)
}

func (g *gateFS) Open(name string) (vfs.File, error) {
	f, err := g.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &gateFile{File: f, g: g}, nil
}

type gateFile struct {
	vfs.File
	g *gateFS
}

func (f *gateFile) ReadAt(p []byte, off int64) (int, error) {
	if f.g.armed.CompareAndSwap(true, false) {
		close(f.g.parked)
		<-f.g.release
	}
	return f.File.ReadAt(p, off)
}

// kvModel is the oracle: the live keys and their values.
type kvModel map[string]string

func (m kvModel) scan(start string, n int) []lsm.KV {
	var ks []string
	for k := range m {
		if k >= start {
			ks = append(ks, k)
		}
	}
	sort.Strings(ks)
	var out []lsm.KV
	for _, k := range ks[:min(n, len(ks))] {
		out = append(out, lsm.KV{Key: []byte(k), Value: []byte(m[k])})
	}
	return out
}

func kvString(kvs []lsm.KV) string {
	s := ""
	for _, kv := range kvs {
		s += fmt.Sprintf("%s=%s ", kv.Key, kv.Value)
	}
	return s
}

// TestReadsDoNotBlockWritesAndAdmitNothingStale parks a Get or a Scan inside
// its device read and commits a write meanwhile. The commit must return
// while the reader is still parked; the reader must then return what its
// snapshot held; and the cache must not have admitted that result if the
// write touched the key span it describes — whatever is read next is the new
// state. A write outside the span costs the admission nothing, unless the
// memtable was rotated under the reader, when the engine no longer has the
// means to tell and declines.
func TestReadsDoNotBlockWritesAndAdmitNothingStale(t *testing.T) {
	// k00..k19 without k05; every case reads around the gap.
	type write struct {
		key string
		del bool
	}
	cases := []struct {
		name  string
		scan  bool
		start string // Get key or scan start
		n     int
		w     write
		stale bool // the write lands inside the span the result describes
	}{
		{"get/overwrite", false, "k03", 0, write{"k03", false}, true},
		{"get/delete", false, "k03", 0, write{"k03", true}, true},
		{"get/elsewhere", false, "k03", 0, write{"k04", false}, false},
		// Scan(k00, 8) returns k00..k04, k06..k08.
		{"scan/overwrite-last", true, "k00", 8, write{"k08", false}, true},
		{"scan/insert-in-gap", true, "k00", 8, write{"k05", false}, true},
		{"scan/delete-first", true, "k00", 8, write{"k00", true}, true},
		{"scan/past-last", true, "k00", 8, write{"k09", false}, false},
		{"scan/below-start", true, "k01", 8, write{"k00", false}, false},
		// Scan(k12, 20) comes back short: it describes everything from k12 up.
		{"scan/short-insert-past-end", true, "k12", 20, write{"k25", false}, true},
	}
	for _, sc := range strategyCases {
		for _, tc := range cases {
			for _, rotated := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/rotated=%v", sc.name, tc.name, rotated)
				t.Run(name, func(t *testing.T) {
					gate := &gateFS{FS: vfs.NewMem()}
					strategy := sc.new(t, 1<<20)
					opts := lsm.DefaultOptions("db")
					opts.FS = gate
					opts.Strategy = strategy
					db, err := lsm.Open(opts)
					if err != nil {
						t.Fatal(err)
					}
					defer db.Close()
					if a, ok := strategy.(*core.AdCache); ok {
						a.Bind(db)
					}
					model := kvModel{}
					for i := 0; i < 20; i++ {
						if i == 5 {
							continue
						}
						k := fmt.Sprintf("k%02d", i)
						model[k] = "old-" + k
						if err := db.Put([]byte(k), []byte(model[k])); err != nil {
							t.Fatal(err)
						}
					}
					// One flush here and at most one more below stay under the
					// L0 compaction trigger: the table stays where it is.
					if err := db.Flush(); err != nil {
						t.Fatal(err)
					}

					read := func() []lsm.KV {
						if tc.scan {
							kvs, err := db.Scan([]byte(tc.start), tc.n)
							if err != nil {
								t.Error(err)
							}
							return kvs
						}
						v, ok, err := db.Get([]byte(tc.start))
						if err != nil {
							t.Error(err)
						}
						if !ok {
							return nil
						}
						return []lsm.KV{{Key: []byte(tc.start), Value: v}}
					}
					want := func() []lsm.KV {
						if tc.scan {
							return model.scan(tc.start, tc.n)
						}
						if v, ok := model[tc.start]; ok {
							return []lsm.KV{{Key: []byte(tc.start), Value: []byte(v)}}
						}
						return nil
					}
					// unblocked fails the test if f is still running after 3 s:
					// it must not be waiting for the parked reader.
					unblocked := func(what string, f func() error) {
						done := make(chan error, 1)
						go func() { done <- f() }()
						select {
						case err := <-done:
							if err != nil {
								t.Fatalf("%s: %v", what, err)
							}
						case <-time.After(3 * time.Second):
							close(gate.release)
							t.Fatalf("%s waited for a reader parked in its device read", what)
						}
					}

					gate.arm()
					before := want()
					got := make(chan []lsm.KV, 1)
					go func() { got <- read() }()
					select {
					case <-gate.parked:
					case <-time.After(10 * time.Second):
						t.Fatal("the read never reached the device")
					}

					unblocked("commit", func() error {
						if tc.w.del {
							delete(model, tc.w.key)
							return db.Delete([]byte(tc.w.key))
						}
						model[tc.w.key] = "new-" + tc.w.key
						return db.Put([]byte(tc.w.key), []byte(model[tc.w.key]))
					})
					if rotated {
						unblocked("flush", db.Flush)
					}
					close(gate.release)

					if g := <-got; kvString(g) != kvString(before) {
						t.Fatalf("parked read returned %s, its snapshot held %s", kvString(g), kvString(before))
					}
					m := db.Metrics()
					skipped, other := m.AdmissionsSkippedStalePoint, m.AdmissionsSkippedStaleScan
					if tc.scan {
						skipped, other = other, skipped
					}
					wantSkipped := int64(0)
					if tc.stale || rotated {
						wantSkipped = 1
					}
					if skipped != wantSkipped || other != 0 {
						t.Fatalf("admissions skipped = %d (other kind %d), want %d (0)", skipped, other, wantSkipped)
					}

					// What is read next is the present — and it comes from the
					// result cache exactly when the parked read's result was
					// admitted: validation withholds what a write overtook and
					// nothing else.
					cached := sc.gets
					if tc.scan {
						cached = sc.scans && len(before) == tc.n
					}
					wantHits := int64(0)
					if cached && wantSkipped == 0 {
						wantHits = 1
					}
					hits := resultHits(strategy)
					if g, w := read(), want(); kvString(g) != kvString(w) {
						t.Fatalf("read after the write = %s, want %s", kvString(g), kvString(w))
					}
					if g := resultHits(strategy) - hits; g != wantHits {
						t.Fatalf("result-cache hits on the next read = %d, want %d", g, wantHits)
					}
					// Once more, now that the fresh result may be cached.
					if g, w := read(), want(); kvString(g) != kvString(w) {
						t.Fatalf("second read after the write = %s, want %s", kvString(g), kvString(w))
					}
				})
			}
		}
	}
}
