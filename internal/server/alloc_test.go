package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"adcache"
	"adcache/internal/api"
	"adcache/internal/api/wire"
)

// Allocation-regression tests for the service hot path, mirroring the
// engine-level tests in internal/lsm: drive the full handler (mux,
// instrumentation, routing headers, engine call) against a discarding
// ResponseWriter with a reused request and pin the per-request budget.
// The budgets are measured ceilings with headroom, not aspirations —
// raising one is a reviewable event. Under -race the paths still run but
// the numeric assertions relax (sync.Pool drops puts randomly).

// nullRW discards the response; its header map is reused across runs so
// only per-request slice values count against the handler.
type nullRW struct {
	h      http.Header
	status int
}

func (n *nullRW) Header() http.Header { return n.h }

func (n *nullRW) Write(b []byte) (int, error) {
	if n.status == 0 {
		n.status = http.StatusOK // implicit 200, as net/http would record
	}
	return len(b), nil
}

func (n *nullRW) WriteHeader(status int) { n.status = status }

// rcBody is a resettable no-op-close request body.
type rcBody struct{ *bytes.Reader }

func (rcBody) Close() error { return nil }

func allocDB(t *testing.T) (*adcache.DB, http.Handler) {
	t.Helper()
	db, err := adcache.Open(adcache.Options{CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db, New(db)
}

func TestGetHandlerAllocs(t *testing.T) {
	db, h := allocDB(t)
	if err := db.Put([]byte("allockey"), []byte("alloc-value")); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("GET", "/v1/kv/allockey", nil)
	rw := &nullRW{h: make(http.Header)}
	h.ServeHTTP(rw, req) // warm pools and lazy state
	allocs := testing.AllocsPerRun(300, func() {
		h.ServeHTTP(rw, req)
	})
	t.Logf("GET /v1/kv allocs/op: %.1f", allocs)
	if rw.status != 200 {
		t.Fatalf("status = %d", rw.status)
	}
	// Budget: key []byte conversion + the engine's pinned read-path
	// allocations (value copy and iterator state).
	if !raceEnabled && allocs > 8 {
		t.Fatalf("GET handler allocs %.1f > budget 8", allocs)
	}
}

func TestPutHandlerAllocs(t *testing.T) {
	_, h := allocDB(t)
	val := []byte("alloc-value")
	br := bytes.NewReader(nil)
	req := httptest.NewRequest("PUT", "/v1/kv/allockey", nil)
	req.Body = rcBody{br}
	req.ContentLength = int64(len(val))
	rw := &nullRW{h: make(http.Header)}
	br.Reset(val)
	h.ServeHTTP(rw, req)
	allocs := testing.AllocsPerRun(300, func() {
		br.Reset(val)
		h.ServeHTTP(rw, req)
	})
	t.Logf("PUT /v1/kv allocs/op: %.1f", allocs)
	if rw.status != 204 {
		t.Fatalf("status = %d", rw.status)
	}
	// Budget: key conversion + engine write-group commit state (batch op
	// copies, WAL record staging).
	if !raceEnabled && allocs > 16 {
		t.Fatalf("PUT handler allocs %.1f > budget 16", allocs)
	}
}

func TestDeleteHandlerAllocs(t *testing.T) {
	db, h := allocDB(t)
	if err := db.Put([]byte("allockey"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("DELETE", "/v1/kv/allockey", nil)
	rw := &nullRW{h: make(http.Header)}
	h.ServeHTTP(rw, req)
	allocs := testing.AllocsPerRun(300, func() {
		h.ServeHTTP(rw, req)
	})
	t.Logf("DELETE /v1/kv allocs/op: %.1f", allocs)
	if !raceEnabled && allocs > 16 {
		t.Fatalf("DELETE handler allocs %.1f > budget 16", allocs)
	}
}

// TestBatchHandlerAllocs pins POST /v1/batch with 8 puts in each codec —
// the request the repo benchmark's serve_mixed workload sends on every
// second write, and its largest server-side entry.
func TestBatchHandlerAllocs(t *testing.T) {
	ops := make([]api.BatchOp, 8)
	for i := range ops {
		ops[i] = put(fmt.Sprintf("batchkey%02d", i), "batch-value")
	}
	for _, tc := range []struct {
		name, ctype string
		body        []byte
		budget      float64
	}{
		// Budgets are the measurements taken before the handlers were
		// rebuilt around one write path (87 and 54), not ceilings with
		// headroom: most of each is the engine's per-op commit state, the
		// JSON surplus is encoding/json building []api.BatchOp.
		{"json", "application/json", jsonOps(ops...), 87},
		{"binary", wire.ContentType, binOps(ops...), 54},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, h := allocDB(t)
			br := bytes.NewReader(nil)
			req := httptest.NewRequest("POST", "/v1/batch", nil)
			req.Body = rcBody{br}
			req.ContentLength = int64(len(tc.body))
			req.Header.Set("Content-Type", tc.ctype)
			rw := &nullRW{h: make(http.Header)}
			br.Reset(tc.body)
			h.ServeHTTP(rw, req)
			allocs := testing.AllocsPerRun(300, func() {
				br.Reset(tc.body)
				h.ServeHTTP(rw, req)
			})
			t.Logf("POST /v1/batch (%s, 8 ops) allocs/op: %.1f", tc.name, allocs)
			if rw.status != 204 {
				t.Fatalf("status = %d", rw.status)
			}
			if !raceEnabled && allocs > tc.budget {
				t.Fatalf("batch handler allocs %.1f > budget %.0f", allocs, tc.budget)
			}
		})
	}
}

// TestClusterGetHandlerAllocs pins the cluster-configured read path,
// which additionally stamps three routing headers and checks ownership.
func TestClusterGetHandlerAllocs(t *testing.T) {
	view, mine, _ := twoNodeView(t)
	db, err := adcache.Open(adcache.Options{CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	h := New(db, WithCluster(view), WithInternalToken(testToken))
	if err := db.Put([]byte(mine), []byte("alloc-value")); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("GET", "/v1/kv/"+mine, nil)
	rw := &nullRW{h: make(http.Header)}
	h.ServeHTTP(rw, req)
	allocs := testing.AllocsPerRun(300, func() {
		h.ServeHTTP(rw, req)
	})
	t.Logf("cluster GET /v1/kv allocs/op: %.1f", allocs)
	if rw.status != 200 {
		t.Fatalf("status = %d", rw.status)
	}
	// Budget: non-cluster GET + one []string header-value slice per
	// routing header.
	if !raceEnabled && allocs > 12 {
		t.Fatalf("cluster GET handler allocs %.1f > budget 12", allocs)
	}
}

// TestScanHandlerAllocs keeps the streaming scan's per-request overhead
// bounded (per-entry work must not allocate: entries are appended into
// the pooled response buffer).
func TestScanHandlerAllocs(t *testing.T) {
	db, h := allocDB(t)
	for _, k := range []string{"scan/a", "scan/b", "scan/c", "scan/d"} {
		if err := db.Put([]byte(k), []byte("value-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest("GET", "/v1/scan?start=scan/&n=4", nil)
	rw := &nullRW{h: make(http.Header)}
	h.ServeHTTP(rw, req)
	allocs := testing.AllocsPerRun(300, func() {
		h.ServeHTTP(rw, req)
	})
	t.Logf("GET /v1/scan allocs/op: %.1f", allocs)
	if rw.status != 200 {
		t.Fatalf("status = %d", rw.status)
	}
	// Budget: URL query parsing (net/url map) + engine iterator state;
	// per-entry encoding must stay free.
	if !raceEnabled && allocs > 24 {
		t.Fatalf("scan handler allocs %.1f > budget 24", allocs)
	}
}
