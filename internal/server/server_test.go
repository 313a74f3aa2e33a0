package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"adcache"
	"adcache/internal/api"
	"adcache/internal/api/wire"
	"adcache/internal/cluster"
)

func testServer(t *testing.T) (*httptest.Server, *adcache.DB) {
	t.Helper()
	db, err := adcache.Open(adcache.Options{CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(db))
	t.Cleanup(func() {
		srv.Close()
		db.Close()
	})
	return srv, db
}

func do(t *testing.T, method, url, body string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp, buf.String()
}

// envelope decodes a typed error body, failing the test if it is not one.
func envelope(t *testing.T, body string) api.Envelope {
	t.Helper()
	var env api.Envelope
	if err := json.Unmarshal([]byte(body), &env); err != nil || env.Code == "" {
		t.Fatalf("not an error envelope: %q (err=%v)", body, err)
	}
	return env
}

func TestPutGetDelete(t *testing.T) {
	srv, _ := testServer(t)
	if resp, _ := do(t, "PUT", srv.URL+"/v1/kv/hello", "world"); resp.StatusCode != 204 {
		t.Fatalf("PUT status %d", resp.StatusCode)
	}
	resp, body := do(t, "GET", srv.URL+"/v1/kv/hello", "")
	if resp.StatusCode != 200 || body != "world" {
		t.Fatalf("GET = %d %q", resp.StatusCode, body)
	}
	if resp, _ := do(t, "DELETE", srv.URL+"/v1/kv/hello", ""); resp.StatusCode != 204 {
		t.Fatalf("DELETE status %d", resp.StatusCode)
	}
	if resp, _ := do(t, "GET", srv.URL+"/v1/kv/hello", ""); resp.StatusCode != 404 {
		t.Fatalf("GET after delete = %d", resp.StatusCode)
	}
}

// TestErrorEnvelope drives every client-error path and asserts the typed
// envelope: HTTP status plus distinct machine-readable code.
func TestErrorEnvelope(t *testing.T) {
	srv, _ := testServer(t)
	roDB, err := adcache.Open(adcache.Options{CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	roSrv := httptest.NewServer(New(roDB, WithReadOnly()))
	t.Cleanup(func() {
		roSrv.Close()
		roDB.Close()
	})
	smallDB, err := adcache.Open(adcache.Options{CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	smallSrv := httptest.NewServer(New(smallDB, WithMaxBodyBytes(16)))
	t.Cleanup(func() {
		smallSrv.Close()
		smallDB.Close()
	})

	tests := []struct {
		name         string
		base         *httptest.Server
		method, path string
		body         string
		wantStatus   int
		wantCode     string
	}{
		{"missing key", srv, "GET", "/v1/kv/nope", "", 404, api.CodeNotFound},
		{"empty key", srv, "GET", "/v1/kv/", "", 400, api.CodeBadKey},
		{"bad kv method", srv, "PATCH", "/v1/kv/x", "", 405, api.CodeMethodNotAllowed},
		{"scan bad n", srv, "GET", "/v1/scan?start=a&n=zap", "", 400, api.CodeBadLimit},
		{"scan n zero", srv, "GET", "/v1/scan?start=a&n=0", "", 400, api.CodeBadLimit},
		{"scan n negative", srv, "GET", "/v1/scan?start=a&n=-3", "", 400, api.CodeBadLimit},
		{"scan n huge", srv, "GET", "/v1/scan?start=a&n=10001", "", 400, api.CodeBadLimit},
		{"scan inverted range", srv, "GET", "/v1/scan?start=m&end=a", "", 400, api.CodeBadLimit},
		{"scan bad method", srv, "POST", "/v1/scan", "", 405, api.CodeMethodNotAllowed},
		{"batch bad json", srv, "POST", "/v1/batch", "{nope", 400, api.CodeBadBody},
		{"batch unknown op", srv, "POST", "/v1/batch", `[{"op":"zap","key":"d"}]`, 400, api.CodeBadOp},
		{"batch empty key", srv, "POST", "/v1/batch", `[{"op":"put","key":"","value":"v"}]`, 400, api.CodeBadKey},
		{"batch bad method", srv, "GET", "/v1/batch", "", 405, api.CodeMethodNotAllowed},
		{"read-only put", roSrv, "PUT", "/v1/kv/x", "y", 403, api.CodeReadOnly},
		{"read-only delete", roSrv, "DELETE", "/v1/kv/x", "", 403, api.CodeReadOnly},
		{"read-only batch", roSrv, "POST", "/v1/batch", `[{"op":"put","key":"a","value":"1"}]`, 403, api.CodeReadOnly},
		{"oversized body", smallSrv, "PUT", "/v1/kv/big", strings.Repeat("x", 64), 413, api.CodeTooLarge},
		{"shardmap unclustered", srv, "GET", "/v1/shardmap", "", 404, api.CodeNotFound},
		{"migrate without header", srv, "GET", "/v1/migrate?shard=0", "", 403, api.CodeForbidden},
		{"unknown path", srv, "GET", "/nope", "", 404, api.CodeNotFound},
		{"unknown v1 path", srv, "GET", "/v1/nope", "", 404, api.CodeNotFound},
		{"root", srv, "GET", "/", "", 404, api.CodeNotFound},
		{"retired kv", srv, "PUT", "/kv/x", "y", 404, api.CodeNotFound},
		{"retired scan", srv, "GET", "/scan?start=a&n=zap", "", 404, api.CodeNotFound},
		{"retired batch", srv, "POST", "/batch", "[]", 404, api.CodeNotFound},
		{"retired stats", srv, "GET", "/stats", "", 404, api.CodeNotFound},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := do(t, tc.method, tc.base.URL+tc.path, tc.body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body %q)", resp.StatusCode, tc.wantStatus, body)
			}
			if env := envelope(t, body); env.Code != tc.wantCode {
				t.Fatalf("code = %q, want %q", env.Code, tc.wantCode)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
				t.Fatalf("error content type %q", ct)
			}
		})
	}
}

// TestRetiredPathsAreNotRoutes: the pre-/v1 paths answer NOT_FOUND naming
// their /v1 successor, and count as route "other" — they are not data
// routes, so they never wait on the concurrency limiter.
func TestRetiredPathsAreNotRoutes(t *testing.T) {
	srv, db := testServer(t)
	for _, p := range []string{"/kv/x", "/scan", "/batch", "/stats"} {
		resp, body := do(t, "GET", srv.URL+p, "")
		if env := envelope(t, body); resp.StatusCode != 404 || !strings.Contains(env.Message, "/v1"+p) {
			t.Fatalf("GET %s = %d %q, want 404 naming /v1%s", p, resp.StatusCode, env.Message, p)
		}
	}
	snap := db.Registry().Snapshot()
	if got := snap[`http_requests_total{route="other"}`]; got != int64(4) {
		t.Fatalf(`route="other" count = %v, want 4`, got)
	}
	for _, rt := range []string{"kv", "scan", "batch", "stats"} {
		if got := snap[`http_requests_total{route="`+rt+`"}`]; got != int64(0) {
			t.Fatalf("retired path counted as route %q (%v requests)", rt, got)
		}
	}
}

func TestScanEndpoint(t *testing.T) {
	srv, _ := testServer(t)
	for i := 0; i < 10; i++ {
		do(t, "PUT", fmt.Sprintf("%s/v1/kv/key%02d", srv.URL, i), fmt.Sprintf("v%d", i))
	}
	resp, body := do(t, "GET", srv.URL+"/v1/scan?start=key03&n=3", "")
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var entries []api.ScanEntry
	if err := json.Unmarshal([]byte(body), &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 || entries[0].Key != "key03" || entries[2].Key != "key05" {
		t.Fatalf("entries = %+v", entries)
	}
	// Bounded variant.
	_, body = do(t, "GET", srv.URL+"/v1/scan?start=key03&end=key05", "")
	json.Unmarshal([]byte(body), &entries)
	if len(entries) != 2 {
		t.Fatalf("bounded entries = %+v", entries)
	}
}

func TestBatchEndpoint(t *testing.T) {
	srv, _ := testServer(t)
	ops := `[{"op":"put","key":"a","value":"1"},{"op":"put","key":"b","value":"2"},{"op":"delete","key":"a"}]`
	if resp, body := do(t, "POST", srv.URL+"/v1/batch", ops); resp.StatusCode != 204 {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	if resp, _ := do(t, "GET", srv.URL+"/v1/kv/a", ""); resp.StatusCode != 404 {
		t.Fatal("deleted-in-batch key visible")
	}
	if _, body := do(t, "GET", srv.URL+"/v1/kv/b", ""); body != "2" {
		t.Fatalf("b = %q", body)
	}
	// Unknown op rejected atomically (nothing applied).
	bad := `[{"op":"put","key":"c","value":"3"},{"op":"zap","key":"d"}]`
	if resp, _ := do(t, "POST", srv.URL+"/v1/batch", bad); resp.StatusCode != 400 {
		t.Fatal("bad batch accepted")
	}
	if resp, _ := do(t, "GET", srv.URL+"/v1/kv/c", ""); resp.StatusCode != 404 {
		t.Fatal("partial batch applied")
	}
}

func TestStatsEndpoint(t *testing.T) {
	srv, db := testServer(t)
	do(t, "PUT", srv.URL+"/v1/kv/x", "y")
	do(t, "GET", srv.URL+"/v1/kv/x", "")
	resp, body := do(t, "GET", srv.URL+"/v1/stats", "")
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	// /v1/stats serves adcache.MetricsSnapshot verbatim.
	var st adcache.MetricsSnapshot
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Strategy != "AdCache" {
		t.Fatalf("strategy = %q", st.Strategy)
	}
	if st.AdCache == nil {
		t.Fatal("adcache controller state missing")
	}
	if st.Engine.LastSeq == 0 {
		t.Fatal("engine metrics missing (LastSeq = 0 after a Put)")
	}
	want := db.Metrics()
	if st.Strategy != want.Strategy || st.AdCache.Params != want.AdCache.Params {
		t.Fatalf("served snapshot diverges from db.Metrics(): %+v vs %+v", st, want)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv, _ := testServer(t)
	do(t, "PUT", srv.URL+"/v1/kv/m", "1")
	do(t, "GET", srv.URL+"/v1/kv/m", "")
	resp, body := do(t, "GET", srv.URL+"/metrics", "")
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	for _, want := range []string{
		"# TYPE lsm_get_nanos summary",
		`lsm_get_nanos{quantile="0.99"}`,
		"lsm_get_nanos_count",
		"cache_block_hits_total",
		"cache_range_get_hits_total",
		`cache_block_shard_hits_total{shard="0"}`,
		"adcache_range_ratio",
		"adcache_actor_lr",
		"trace_write_errors_total 0",
		`adcache_strategy_info{strategy="AdCache"} 1`,
		`http_requests_total{route="kv"}`,
		`http_shard_read_nanos`,
		`http_shard_write_nanos`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestMetricsDebugVars(t *testing.T) {
	srv, _ := testServer(t)
	do(t, "PUT", srv.URL+"/v1/kv/d", "1")
	resp, body := do(t, "GET", srv.URL+"/debug/vars", "")
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var payload map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &payload); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, body)
	}
	if _, ok := payload["memstats"]; !ok {
		t.Fatal("standard expvar memstats missing")
	}
	var reg map[string]interface{}
	if err := json.Unmarshal(payload["adcache"], &reg); err != nil {
		t.Fatal(err)
	}
	if _, ok := reg["lsm_user_bytes_total"]; !ok {
		t.Fatalf("registry snapshot missing engine counters: %v", reg)
	}
}

func TestMetricsRequestLatency(t *testing.T) {
	srv, db := testServer(t)
	for i := 0; i < 5; i++ {
		do(t, "GET", srv.URL+"/v1/kv/nope", "")
	}
	snap := db.Registry().Snapshot()
	v, ok := snap[`http_requests_total{route="kv"}`]
	if !ok || v.(int64) != 5 {
		t.Fatalf("kv request counter = %v (ok=%v)", v, ok)
	}
	if _, ok := snap[`http_request_nanos{route="kv"}`]; !ok {
		t.Fatal("kv latency histogram missing")
	}
}

// twoNodeView builds a 4-slot map split between "self" and "other" and a
// view for self. Returns the view and a key owned by each side.
func twoNodeView(t *testing.T) (*cluster.NodeView, string, string) {
	t.Helper()
	m := &cluster.ShardMap{
		Epoch:  3,
		Shards: 4,
		Nodes: []cluster.Node{
			{ID: "other", Addr: "127.0.0.1:1"},
			{ID: "self", Addr: "127.0.0.1:2"},
		},
		Owner: []string{"self", "self", "other", "other"},
	}
	view, err := cluster.NewNodeView("self", m)
	if err != nil {
		t.Fatal(err)
	}
	var mine, theirs string
	for i := 0; mine == "" || theirs == ""; i++ {
		k := fmt.Sprintf("key%04d", i)
		if s := cluster.ShardOf([]byte(k), 4); s < 2 {
			if mine == "" {
				mine = k
			}
		} else if theirs == "" {
			theirs = k
		}
	}
	return view, mine, theirs
}

// migrateBody encodes key/value pairs as a /v1/migrate load: the binary
// batch framing, puts only.
func migrateBody(kv ...string) []byte {
	b := wire.AppendBatchHeader(nil, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		b = wire.AppendPut(b, []byte(kv[i]), []byte(kv[i+1]))
	}
	return b
}

// decodeStream decodes a complete binary entry stream (a /v1/migrate
// export or a binary scan), failing the test if it is cut short.
func decodeStream(t *testing.T, body string) []api.ScanEntry {
	t.Helper()
	var d wire.StreamDecoder
	d.Reset(strings.NewReader(body))
	var out []api.ScanEntry
	for {
		k, v, err := d.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("stream decode after %d entries: %v", len(out), err)
		}
		out = append(out, api.ScanEntry{Key: string(k), Value: string(v)})
	}
}

// testToken is the migration secret cluster test servers run with.
const testToken = "test-migration-token"

func clusterServer(t *testing.T, view *cluster.NodeView) *httptest.Server {
	srv, _ := clusterServerDB(t, view)
	return srv
}

func clusterServerDB(t *testing.T, view *cluster.NodeView) (*httptest.Server, *adcache.DB) {
	t.Helper()
	db, err := adcache.Open(adcache.Options{CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(db, WithCluster(view), WithInternalToken(testToken)))
	t.Cleanup(func() {
		srv.Close()
		db.Close()
	})
	return srv, db
}

// TestWrongShard: a cluster-configured node serves its owned slots and
// answers 421 WRONG_SHARD with routing headers for foreign keys.
func TestWrongShard(t *testing.T) {
	view, mine, theirs := twoNodeView(t)
	srv := clusterServer(t, view)

	if resp, _ := do(t, "PUT", srv.URL+"/v1/kv/"+mine, "v"); resp.StatusCode != 204 {
		t.Fatalf("owned PUT status %d", resp.StatusCode)
	}
	resp, body := do(t, "GET", srv.URL+"/v1/kv/"+mine, "")
	if resp.StatusCode != 200 || body != "v" {
		t.Fatalf("owned GET = %d %q", resp.StatusCode, body)
	}
	if resp.Header.Get(api.HeaderEpoch) != "3" || resp.Header.Get(api.HeaderNode) != "self" {
		t.Fatalf("routing headers = epoch %q node %q",
			resp.Header.Get(api.HeaderEpoch), resp.Header.Get(api.HeaderNode))
	}
	if resp.Header.Get(api.HeaderShard) == "" {
		t.Fatal("shard header missing")
	}

	for _, tc := range []struct{ method, body string }{
		{"GET", ""}, {"PUT", "v"}, {"DELETE", ""},
	} {
		resp, body := do(t, tc.method, srv.URL+"/v1/kv/"+theirs, tc.body)
		if resp.StatusCode != http.StatusMisdirectedRequest {
			t.Fatalf("%s foreign key status %d, want 421", tc.method, resp.StatusCode)
		}
		env := envelope(t, body)
		if env.Code != api.CodeWrongShard || env.Epoch != 3 {
			t.Fatalf("%s foreign key envelope %+v", tc.method, env)
		}
	}

	// A batch containing any foreign key is rejected whole.
	ops := fmt.Sprintf(`[{"op":"put","key":%q,"value":"1"},{"op":"put","key":%q,"value":"2"}]`, mine, theirs)
	resp, body = do(t, "POST", srv.URL+"/v1/batch", ops)
	if resp.StatusCode != http.StatusMisdirectedRequest || envelope(t, body).Code != api.CodeWrongShard {
		t.Fatalf("mixed batch = %d %q", resp.StatusCode, body)
	}
}

// TestShardMapEndpoint: GET serves the current map; POST accepts only
// strictly newer epochs with the same slot count.
func TestShardMapEndpoint(t *testing.T) {
	view, _, _ := twoNodeView(t)
	srv := clusterServer(t, view)

	resp, body := do(t, "GET", srv.URL+"/v1/shardmap", "")
	if resp.StatusCode != 200 {
		t.Fatalf("GET status %d", resp.StatusCode)
	}
	var m cluster.ShardMap
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatal(err)
	}
	if m.Epoch != 3 || m.Shards != 4 {
		t.Fatalf("map = %+v", m)
	}

	next, err := m.WithMove(0, "other")
	if err != nil {
		t.Fatal(err)
	}
	nb, _ := json.Marshal(next)
	if resp, body := do(t, "POST", srv.URL+"/v1/shardmap", string(nb)); resp.StatusCode != 204 {
		t.Fatalf("POST newer map = %d %q", resp.StatusCode, body)
	}
	if view.Epoch() != 4 || view.OwnsShard(0) {
		t.Fatalf("view not advanced: epoch %d owns0=%v", view.Epoch(), view.OwnsShard(0))
	}
	// Stale epoch → 409 STALE_EPOCH.
	stale, _ := json.Marshal(&m)
	resp, body = do(t, "POST", srv.URL+"/v1/shardmap", string(stale))
	if resp.StatusCode != 409 || envelope(t, body).Code != api.CodeStaleEpoch {
		t.Fatalf("stale POST = %d %q", resp.StatusCode, body)
	}
	// Changed slot count → 400 BAD_MAP.
	badMap := next.Clone()
	badMap.Epoch++
	badMap.Shards = 8
	badMap.Owner = append(badMap.Owner, "self", "self", "self", "self")
	bb, _ := json.Marshal(badMap)
	resp, body = do(t, "POST", srv.URL+"/v1/shardmap", string(bb))
	if resp.StatusCode != 400 || envelope(t, body).Code != api.CodeBadMap {
		t.Fatalf("bad-map POST = %d %q", resp.StatusCode, body)
	}
}

// TestShardStats: keyed traffic lands in per-slot histograms served by
// /v1/shardstats.
func TestShardStats(t *testing.T) {
	view, mine, _ := twoNodeView(t)
	srv := clusterServer(t, view)
	for i := 0; i < 7; i++ {
		do(t, "GET", srv.URL+"/v1/kv/"+mine, "")
	}
	do(t, "PUT", srv.URL+"/v1/kv/"+mine, "v")

	resp, body := do(t, "GET", srv.URL+"/v1/shardstats", "")
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var st api.ShardStats
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Node != "self" || st.Epoch != 3 || len(st.Shards) != 4 {
		t.Fatalf("shardstats = node %q epoch %d %d slots", st.Node, st.Epoch, len(st.Shards))
	}
	slot := cluster.ShardOf([]byte(mine), 4)
	if got := st.Shards[slot].Reads.Count; got != 7 {
		t.Fatalf("slot %d read count = %d, want 7", slot, got)
	}
	if got := st.Shards[slot].Writes.Count; got != 1 {
		t.Fatalf("slot %d write count = %d, want 1", slot, got)
	}
}

// TestShardStatsBudgets: adaptive-strategy nodes report the unified memory
// ledger (memtable, blockcache, rangecache) on /v1/shardstats, so the
// shard manager and operators can see memory moving between components.
func TestShardStatsBudgets(t *testing.T) {
	view, _, _ := twoNodeView(t)
	srv := clusterServer(t, view)

	resp, body := do(t, "GET", srv.URL+"/v1/shardstats", "")
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var st api.ShardStats
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	seen := map[string]api.BudgetStat{}
	for _, b := range st.Budgets {
		seen[b.Component] = b
	}
	for _, want := range []string{"memtable", "blockcache", "rangecache"} {
		if _, ok := seen[want]; !ok {
			t.Fatalf("budgets missing %q: %+v", want, st.Budgets)
		}
	}
	// Without unified memory the caches split the whole budget and the
	// memtable target is zero (arbitration off).
	if sum := seen["blockcache"].TargetBytes + seen["rangecache"].TargetBytes; sum != 1<<20 {
		t.Fatalf("cache targets sum to %d, want %d", sum, 1<<20)
	}
	if got := seen["memtable"].TargetBytes; got != 0 {
		t.Fatalf("memtable target %d with arbitration off, want 0", got)
	}
}

// TestMigrateEndpoints: export, bulk-load and purge one slot through the
// internal migration surface.
func TestMigrateEndpoints(t *testing.T) {
	view, mine, theirs := twoNodeView(t)
	srv := clusterServer(t, view)

	internal := func(method, path, body string) (*http.Response, string) {
		req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(api.HeaderInternal, testToken)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		return resp, buf.String()
	}

	do(t, "PUT", srv.URL+"/v1/kv/"+mine, "owned-value")
	mySlot := cluster.ShardOf([]byte(mine), 4)
	theirSlot := cluster.ShardOf([]byte(theirs), 4)

	// Export the owned slot.
	resp, body := internal("GET", fmt.Sprintf("/v1/migrate?shard=%d", mySlot), "")
	if resp.StatusCode != 200 {
		t.Fatalf("export status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != wire.ContentType {
		t.Fatalf("export Content-Type = %q, want %q", ct, wire.ContentType)
	}
	if entries := decodeStream(t, body); len(entries) != 1 || entries[0] != (api.ScanEntry{Key: mine, Value: "owned-value"}) {
		t.Fatalf("export = %+v", entries)
	}

	// Bulk-load a foreign slot (this is what the new owner receives).
	load := migrateBody(theirs, "migrated")
	if resp, body := internal("POST", fmt.Sprintf("/v1/migrate?shard=%d", theirSlot), string(load)); resp.StatusCode != 204 {
		t.Fatalf("bulk-load = %d %q", resp.StatusCode, body)
	}
	// The loaded key is invisible to scans (unowned)...
	_, body = do(t, "GET", srv.URL+"/v1/scan?start=&n=100", "")
	if strings.Contains(body, "migrated") {
		t.Fatalf("unowned key visible in scan: %s", body)
	}
	// ...and not servable (WRONG_SHARD), but present for migration export.
	if resp, _ := do(t, "GET", srv.URL+"/v1/kv/"+theirs, ""); resp.StatusCode != 421 {
		t.Fatalf("unowned GET status %d", resp.StatusCode)
	}

	// Purge refuses owned slots, allows foreign ones.
	resp, body = internal("DELETE", fmt.Sprintf("/v1/migrate?shard=%d", mySlot), "")
	if resp.StatusCode != 409 || envelope(t, body).Code != api.CodeOwnedShard {
		t.Fatalf("purge owned = %d %q", resp.StatusCode, body)
	}
	if resp, body := internal("DELETE", fmt.Sprintf("/v1/migrate?shard=%d", theirSlot), ""); resp.StatusCode != 204 {
		t.Fatalf("purge foreign = %d %q", resp.StatusCode, body)
	}
	_, body = internal("GET", fmt.Sprintf("/v1/migrate?shard=%d", theirSlot), "")
	if entries := decodeStream(t, body); len(entries) != 0 {
		t.Fatalf("purged slot still has entries: %+v", entries)
	}

	// Bad shard parameter.
	resp, body = internal("GET", "/v1/migrate?shard=99", "")
	if resp.StatusCode != 400 || envelope(t, body).Code != api.CodeBadShard {
		t.Fatalf("bad shard = %d %q", resp.StatusCode, body)
	}
}

// TestScanOwnedPagination: scans skip unowned leftovers and still fill
// the requested page from owned keys beyond them.
func TestScanOwnedPagination(t *testing.T) {
	view, _, _ := twoNodeView(t)
	srv := clusterServer(t, view)
	// Load every key (owned or not) through the migration bypass.
	var all []string
	for i := 0; i < 40; i++ {
		all = append(all, fmt.Sprintf("key%04d", i), "v")
	}
	req, _ := http.NewRequest("POST", srv.URL+"/v1/migrate?shard=0", bytes.NewReader(migrateBody(all...)))
	req.Header.Set(api.HeaderInternal, testToken)
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != 204 {
		t.Fatalf("bulk load: %v %v", err, resp)
	}
	_, body := do(t, "GET", srv.URL+"/v1/scan?start=&n=100", "")
	var entries []api.ScanEntry
	if err := json.Unmarshal([]byte(body), &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 || len(entries) >= 40 {
		t.Fatalf("scan returned %d entries, want only the owned subset", len(entries))
	}
	for _, e := range entries {
		if s := cluster.ShardOf([]byte(e.Key), 4); s >= 2 {
			t.Fatalf("scan leaked unowned key %q (slot %d)", e.Key, s)
		}
	}
}

// TestMigrateTokenAuth: the migration surface is gated by the configured
// shared secret, not a well-known header value — wrong tokens and
// token-less nodes reject everything, and a bad token never bypasses
// ownership checks on the data plane.
func TestMigrateTokenAuth(t *testing.T) {
	view, _, theirs := twoNodeView(t)
	srv := clusterServer(t, view)

	withHeader := func(base, method, path, value string) (*http.Response, string) {
		t.Helper()
		req, err := http.NewRequest(method, base+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if value != "" {
			req.Header.Set(api.HeaderInternal, value)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		return resp, buf.String()
	}

	// The formerly well-known constant value is just a wrong token now.
	for _, tok := range []string{"", "migrate", testToken + "x"} {
		resp, body := withHeader(srv.URL, "GET", "/v1/migrate?shard=0", tok)
		if resp.StatusCode != 403 || envelope(t, body).Code != api.CodeForbidden {
			t.Fatalf("token %q: migrate = %d %q, want 403 FORBIDDEN", tok, resp.StatusCode, body)
		}
	}
	// A wrong token does not bypass ownership on the data plane.
	req, _ := http.NewRequest("GET", srv.URL+"/v1/kv/"+theirs, nil)
	req.Header.Set(api.HeaderInternal, "migrate")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("foreign key with bogus token = %d, want 421", resp.StatusCode)
	}

	// A node with no token configured rejects all migration traffic —
	// there is no default secret.
	view2, _, _ := twoNodeView(t)
	db, err2 := adcache.Open(adcache.Options{CacheBytes: 1 << 20})
	if err2 != nil {
		t.Fatal(err2)
	}
	bare := httptest.NewServer(New(db, WithCluster(view2)))
	t.Cleanup(func() {
		bare.Close()
		db.Close()
	})
	for _, tok := range []string{"", "migrate", testToken} {
		resp, body := withHeader(bare.URL, "GET", "/v1/migrate?shard=0", tok)
		if resp.StatusCode != 403 || envelope(t, body).Code != api.CodeForbidden {
			t.Fatalf("token-less node, token %q: migrate = %d %q, want 403", tok, resp.StatusCode, body)
		}
	}
}

// TestFenceWriteRace: a PUT whose ownership would have passed under the
// old map but whose body completes after a fence must be rejected with
// WRONG_SHARD, never acked — the exact window in which an acked write
// would be lost to the post-move purge. The slow request body used to
// widen this window arbitrarily; now the ownership check and the engine
// write share a critical section that the fence drains.
func TestFenceWriteRace(t *testing.T) {
	view, mine, _ := twoNodeView(t)
	srv, db := clusterServerDB(t, view)

	pr, pw := io.Pipe()
	type outcome struct {
		status int
		code   string
	}
	done := make(chan outcome, 1)
	go func() {
		req, err := http.NewRequest("PUT", srv.URL+"/v1/kv/"+mine, pr)
		if err != nil {
			done <- outcome{0, err.Error()}
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			done <- outcome{0, err.Error()}
			return
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		var env api.Envelope
		json.Unmarshal(buf.Bytes(), &env)
		done <- outcome{resp.StatusCode, env.Code}
	}()

	// Get the request in flight with its body still open…
	if _, err := pw.Write([]byte("v")); err != nil {
		t.Fatal(err)
	}
	// …then fence the key's slot away to the other node.
	cur := view.Current()
	next, err := cur.WithMove(cluster.ShardOf([]byte(mine), cur.Shards), "other")
	if err != nil {
		t.Fatal(err)
	}
	nb, _ := json.Marshal(next)
	if resp, body := do(t, "POST", srv.URL+"/v1/shardmap", string(nb)); resp.StatusCode != 204 {
		t.Fatalf("fence POST = %d %q", resp.StatusCode, body)
	}
	// Only now let the body finish. The write's ownership check runs
	// after the full body read, under the post-fence map.
	pw.Write([]byte("2"))
	pw.Close()

	o := <-done
	if o.status != http.StatusMisdirectedRequest || o.code != api.CodeWrongShard {
		t.Fatalf("post-fence PUT = %d %q, want 421 WRONG_SHARD", o.status, o.code)
	}
	// Nothing may have landed in the engine: an unacked write that still
	// commits would be silently dropped by the migration's purge.
	if _, ok, err := db.Get([]byte(mine)); err != nil || ok {
		t.Fatalf("rejected write reached the engine (ok=%v err=%v)", ok, err)
	}
}

func TestConcurrencyLimit(t *testing.T) {
	db, err := adcache.Open(adcache.Options{CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(db, WithConcurrencyLimit(2)))
	t.Cleanup(func() {
		srv.Close()
		db.Close()
	})
	// Requests queue rather than fail: hammer with more concurrency than
	// the limit and expect every response to succeed.
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(fmt.Sprintf("%s/v1/kv/k%d", srv.URL, i))
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != 404 {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
