package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"adcache"
	"adcache/internal/api"
	"adcache/internal/api/wire"
	"adcache/internal/cluster"
)

// TestWritePipelineMatrix drives every write shape — PUT, DELETE, JSON
// batch, binary batch, token-bearing (internal) batch, migration load —
// through both group-forming modes (direct: a group of one per request;
// coalesced: the collector's groups) on a cluster-configured node, and
// requires the same status, envelope code, routing headers, per-slot
// write-histogram counts and engine contents from both. There is one write
// path, so anything one mode does the other must do too; each row also
// states the outcome it expects.

// writeCase is one request against a freshly seeded node.
type writeCase struct {
	name         string
	method, path string
	ctype        string
	body         []byte
	token        bool              // send the migration token
	seed         map[string]string // engine contents before the request
	status       int
	code         string            // envelope code ("" on 2xx)
	want         map[string]string // engine contents after the request
	observed     []string          // keys whose slots each get one write observation
}

// writeOutcome is everything a write request may change or answer.
type writeOutcome struct {
	Status             int
	Code               string
	Epoch, Node, Shard string  // routing headers
	Writes             []int64 // per-slot write-histogram counts
	Contents           map[string]string
}

// pipelineNode is a cluster-configured node (twoNodeView: self owns slots
// 0 and 1 at epoch 3) in one group-forming mode.
func pipelineNode(t *testing.T, coalesced bool) (*httptest.Server, *adcache.DB) {
	t.Helper()
	view, _, _ := twoNodeView(t)
	if coalesced {
		return coalClusterServerDB(t, view)
	}
	return clusterServerDB(t, view)
}

// contents reads the whole engine, owned or not.
func contents(t *testing.T, db *adcache.DB) map[string]string {
	t.Helper()
	it, err := db.NewIter()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	out := map[string]string{}
	for ok := it.First(); ok; ok = it.Next() {
		out[string(it.Key())] = string(it.Value())
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func (tc writeCase) run(t *testing.T, coalesced bool) writeOutcome {
	t.Helper()
	srv, db := pipelineNode(t, coalesced)
	for k, v := range tc.seed {
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(tc.method, srv.URL+tc.path, bytes.NewReader(tc.body))
	if err != nil {
		t.Fatal(err)
	}
	if tc.ctype != "" {
		req.Header.Set("Content-Type", tc.ctype)
	}
	if tc.token {
		req.Header.Set(api.HeaderInternal, testToken)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	resp.Body.Close()

	out := writeOutcome{
		Status:   resp.StatusCode,
		Epoch:    resp.Header.Get(api.HeaderEpoch),
		Node:     resp.Header.Get(api.HeaderNode),
		Shard:    resp.Header.Get(api.HeaderShard),
		Contents: contents(t, db),
	}
	if resp.StatusCode/100 != 2 {
		out.Code = envelope(t, body.String()).Code
	}
	_, stats := do(t, "GET", srv.URL+"/v1/shardstats", "")
	var st api.ShardStats
	if err := json.Unmarshal([]byte(stats), &st); err != nil {
		t.Fatal(err)
	}
	for _, sh := range st.Shards {
		out.Writes = append(out.Writes, sh.Writes.Count)
	}
	return out
}

func jsonOps(ops ...api.BatchOp) []byte {
	b, _ := json.Marshal(ops)
	return b
}

func put(k, v string) api.BatchOp { return api.BatchOp{Op: "put", Key: k, Value: v} }
func del(k string) api.BatchOp    { return api.BatchOp{Op: "delete", Key: k} }

// binOps is jsonOps in the binary batch framing.
func binOps(ops ...api.BatchOp) []byte {
	b := wire.AppendBatchHeader(nil, len(ops))
	for _, o := range ops {
		if o.Op == "put" {
			b = wire.AppendPut(b, []byte(o.Key), []byte(o.Value))
		} else {
			b = wire.AppendDelete(b, []byte(o.Key))
		}
	}
	return b
}

func TestWritePipelineMatrix(t *testing.T) {
	const nSlots = 4
	// Three owned keys over both owned slots, and one foreign key.
	var mine, mine2, gone, theirs string
	for i := 0; mine == "" || mine2 == "" || gone == "" || theirs == ""; i++ {
		k := fmt.Sprintf("key%04d", i)
		switch cluster.ShardOf([]byte(k), nSlots) {
		case 0:
			if mine == "" {
				mine = k
			} else if gone == "" {
				gone = k
			}
		case 1:
			if mine2 == "" {
				mine2 = k
			}
		default:
			if theirs == "" {
				theirs = k
			}
		}
	}
	const awkward = "quote\" back\\slash \n tab\t unicode→"
	// One op sequence for the codec-equivalence rows: an overwrite, a
	// delete of a key written earlier in the same batch, escapes.
	mixed := []api.BatchOp{
		put(mine, "1"), put(mine2, awkward), put(gone, "x"),
		del(gone), put(mine, "rewritten"),
	}
	mixedWant := map[string]string{mine: "rewritten", mine2: awkward}
	mixedKeys := []string{mine, mine2, gone}
	bin, js := wire.ContentType, "application/json"
	kv, batch := "/v1/kv/", "/v1/batch"
	load := "/v1/migrate?shard=2"
	none := map[string]string{}

	cases := []writeCase{
		{name: "put owned", method: "PUT", path: kv + mine, body: []byte("v"),
			status: 204, want: map[string]string{mine: "v"}, observed: []string{mine}},
		{name: "put empty value", method: "PUT", path: kv + mine,
			status: 204, want: map[string]string{mine: ""}, observed: []string{mine}},
		{name: "put foreign", method: "PUT", path: kv + theirs, body: []byte("v"),
			status: 421, code: api.CodeWrongShard, want: none},
		{name: "put foreign with token", method: "PUT", path: kv + theirs, body: []byte("v"), token: true,
			status: 204, want: map[string]string{theirs: "v"}, observed: []string{theirs}},
		{name: "delete owned", method: "DELETE", path: kv + mine, seed: map[string]string{mine: "v", mine2: "w"},
			status: 204, want: map[string]string{mine2: "w"}, observed: []string{mine}},
		{name: "delete foreign", method: "DELETE", path: kv + theirs, seed: map[string]string{theirs: "v"},
			status: 421, code: api.CodeWrongShard, want: map[string]string{theirs: "v"}},

		{name: "json batch", method: "POST", path: batch, ctype: js, body: jsonOps(mixed...),
			status: 204, want: mixedWant, observed: mixedKeys},
		{name: "binary batch", method: "POST", path: batch, ctype: bin, body: binOps(mixed...),
			status: 204, want: mixedWant, observed: mixedKeys},
		{name: "empty json batch", method: "POST", path: batch, ctype: js, body: []byte("[]"),
			status: 204, want: none},
		{name: "json batch with a foreign op is rejected whole", method: "POST", path: batch, ctype: js,
			body:   jsonOps(put(mine, "ok"), put(theirs, "foreign")),
			status: 421, code: api.CodeWrongShard, want: none},
		{name: "binary batch with a foreign op is rejected whole", method: "POST", path: batch, ctype: bin,
			body:   binOps(put(mine, "ok"), put(theirs, "foreign")),
			status: 421, code: api.CodeWrongShard, want: none},
		{name: "binary batch foreign", method: "POST", path: batch, ctype: bin, body: binOps(put(theirs, "v")),
			status: 421, code: api.CodeWrongShard, want: none},
		{name: "internal json batch bypasses ownership", method: "POST", path: batch, ctype: js, token: true,
			body:   jsonOps(put(mine, "a"), put(theirs, "b")),
			status: 204, want: map[string]string{mine: "a", theirs: "b"}, observed: []string{mine, theirs}},
		{name: "internal binary batch bypasses ownership", method: "POST", path: batch, ctype: bin, token: true,
			body:   binOps(put(mine, "a"), put(theirs, "b")),
			status: 204, want: map[string]string{mine: "a", theirs: "b"}, observed: []string{mine, theirs}},

		// Body-shape errors, each atomic: the valid op before the bad one
		// must not land.
		{name: "json batch malformed", method: "POST", path: batch, ctype: js, body: []byte("{nope"),
			status: 400, code: api.CodeBadBody, want: none},
		{name: "json batch unknown op", method: "POST", path: batch, ctype: js,
			body:   []byte(`[{"op":"put","key":"` + mine + `","value":"3"},{"op":"zap","key":"` + mine2 + `"}]`),
			status: 400, code: api.CodeBadOp, want: none},
		{name: "json batch empty key", method: "POST", path: batch, ctype: js, body: jsonOps(put(mine, "3"), put("", "v")),
			status: 400, code: api.CodeBadKey, want: none},
		{name: "binary batch bad version", method: "POST", path: batch, ctype: bin, body: []byte{0x09, 0x01},
			status: 400, code: api.CodeBadBody, want: none},
		{name: "binary batch truncated", method: "POST", path: batch, ctype: bin, body: wire.AppendBatchHeader(nil, 3),
			status: 400, code: api.CodeBadBody, want: none},
		{name: "binary batch empty key", method: "POST", path: batch, ctype: bin, body: binOps(put(mine, "3"), put("", "v")),
			status: 400, code: api.CodeBadKey, want: none},
		// Each codec's own BAD_BODY ordering: JSON parses the whole body
		// before staging any op, binary stages op by op.
		{name: "json: malformed tail beats an earlier empty key", method: "POST", path: batch, ctype: js,
			body:   []byte(`[{"op":"put","key":"","value":"v"},{nope`),
			status: 400, code: api.CodeBadBody, want: none},
		{name: "binary: an earlier empty key beats a truncated tail", method: "POST", path: batch, ctype: bin,
			body:   wire.AppendPut(wire.AppendBatchHeader(nil, 2), nil, []byte("v")),
			status: 400, code: api.CodeBadKey, want: none},
		// The precedence rule: body shape is decided while staging,
		// ownership inside apply — a misrouted op ahead of a malformed one
		// still answers 400.
		{name: "precedence: foreign op then empty key", method: "POST", path: batch, ctype: js,
			body:   jsonOps(put(theirs, "v"), put("", "v")),
			status: 400, code: api.CodeBadKey, want: none},
		{name: "precedence: foreign op then unknown op", method: "POST", path: batch, ctype: js,
			body:   []byte(`[{"op":"put","key":"` + theirs + `","value":"v"},{"op":"zap","key":"` + mine + `"}]`),
			status: 400, code: api.CodeBadOp, want: none},
		{name: "precedence: foreign op then empty key, binary", method: "POST", path: batch, ctype: bin,
			body:   binOps(put(theirs, "v"), put("", "v")),
			status: 400, code: api.CodeBadKey, want: none},

		// Migration load: the batch framing under the token, into a slot
		// this node does not own; it feeds no per-slot histogram.
		{name: "migrate load", method: "POST", path: load, body: migrateBody(theirs, "moved", theirs+"/b", "moved2"), token: true,
			status: 204, want: map[string]string{theirs: "moved", theirs + "/b": "moved2"}},
		{name: "migrate load without token", method: "POST", path: load, body: migrateBody(theirs, "moved"),
			status: 403, code: api.CodeForbidden, want: none},
		{name: "migrate load malformed", method: "POST", path: load, body: []byte(`[{"k":"a2V5","v":"dg=="}]`), token: true,
			status: 400, code: api.CodeBadBody, want: none},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			direct, coalesced := tc.run(t, false), tc.run(t, true)
			if !reflect.DeepEqual(direct, coalesced) {
				t.Fatalf("modes disagree:\n  direct    %+v\n  coalesced %+v", direct, coalesced)
			}
			got := direct
			if got.Status != tc.status || got.Code != tc.code {
				t.Fatalf("answer = %d %q, want %d %q", got.Status, got.Code, tc.status, tc.code)
			}
			if !reflect.DeepEqual(got.Contents, tc.want) {
				t.Fatalf("engine = %v, want %v", got.Contents, tc.want)
			}
			wantWrites := make([]int64, nSlots)
			for _, k := range tc.observed {
				wantWrites[cluster.ShardOf([]byte(k), nSlots)] = 1
			}
			if !reflect.DeepEqual(got.Writes, wantWrites) {
				t.Fatalf("per-slot write counts = %v, want %v", got.Writes, wantWrites)
			}
			// Routing headers: every answer from the data plane names epoch
			// and node, keyed ones their slot.
			if tc.path != load {
				wantShard := ""
				if len(tc.path) > len(kv) && tc.path[:len(kv)] == kv {
					wantShard = strconv.Itoa(cluster.ShardOf([]byte(tc.path[len(kv):]), nSlots))
				}
				if got.Epoch != "3" || got.Node != "self" || got.Shard != wantShard {
					t.Fatalf("routing headers = epoch %q node %q shard %q, want 3/self/%q",
						got.Epoch, got.Node, got.Shard, wantShard)
				}
			}
		})
	}

	// Both codecs' scans of what both codecs' batches wrote agree.
	t.Run("scan views agree", func(t *testing.T) {
		var views [][]api.ScanEntry
		for _, body := range []struct {
			ctype string
			b     []byte
		}{{js, jsonOps(mixed...)}, {bin, binOps(mixed...)}} {
			srv, _ := pipelineNode(t, false)
			if st, rb := postBatch(t, srv.URL, body.ctype, body.b); st != 204 {
				t.Fatalf("batch = %d %q", st, rb)
			}
			views = append(views, scanJSON(t, srv.URL, "", 100), scanBinary(t, srv.URL, "", 100))
		}
		want := []api.ScanEntry{{Key: mine, Value: "rewritten"}, {Key: mine2, Value: awkward}}
		if want[0].Key > want[1].Key {
			want[0], want[1] = want[1], want[0]
		}
		for i, v := range views {
			if !reflect.DeepEqual(v, want) {
				t.Fatalf("view %d = %+v, want %+v", i, v, want)
			}
		}
	})
}

// TestWritePipelineConcurrent: concurrent singles and batch bodies all
// land and are individually acked in both modes; with coalescing on, the
// collector's counters account for every op and show real grouping.
func TestWritePipelineConcurrent(t *testing.T) {
	for _, coalesced := range []bool{false, true} {
		t.Run(fmt.Sprintf("coalesced=%v", coalesced), func(t *testing.T) {
			db, err := adcache.Open(adcache.Options{CacheBytes: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			var opts []Option
			if coalesced {
				opts = append(opts, WithWriteCoalescing(200*time.Microsecond, 64))
			}
			srv := httptest.NewServer(New(db, opts...))
			t.Cleanup(func() {
				srv.Close()
				db.Close()
			})

			const singles, batches, perBatch = 64, 16, 4
			var wg sync.WaitGroup
			errs := make(chan error, singles+batches)
			expect := func(method, url, body string) {
				defer wg.Done()
				if status, rbody, err := send(method, url, body); err != nil {
					errs <- err
				} else if status != 204 {
					errs <- fmt.Errorf("%s %s = %d %q", method, url, status, rbody)
				}
			}
			for i := 0; i < singles; i++ {
				wg.Add(1)
				go expect("PUT", fmt.Sprintf("%s/v1/kv/single%03d", srv.URL, i), fmt.Sprintf("v%03d", i))
			}
			for i := 0; i < batches; i++ {
				var ops []api.BatchOp
				for j := 0; j < perBatch; j++ {
					ops = append(ops, put(fmt.Sprintf("batch%02d-%d", i, j), fmt.Sprintf("v%02d-%d", i, j)))
				}
				wg.Add(1)
				go expect("POST", srv.URL+"/v1/batch", string(jsonOps(ops...)))
			}
			wg.Wait()
			// Deletes ride the same path.
			for i := 0; i < singles; i += 2 {
				wg.Add(1)
				go expect("DELETE", fmt.Sprintf("%s/v1/kv/single%03d", srv.URL, i), "")
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}

			want := map[string]string{}
			for i := 1; i < singles; i += 2 {
				want[fmt.Sprintf("single%03d", i)] = fmt.Sprintf("v%03d", i)
			}
			for i := 0; i < batches; i++ {
				for j := 0; j < perBatch; j++ {
					want[fmt.Sprintf("batch%02d-%d", i, j)] = fmt.Sprintf("v%02d-%d", i, j)
				}
			}
			if got := contents(t, db); !reflect.DeepEqual(got, want) {
				t.Fatalf("engine holds %d keys, want %d: %v", len(got), len(want), got)
			}
			if !coalesced {
				return
			}
			reg := db.Registry()
			groups := reg.Counter("http_coalesce_groups_total", "").Value()
			ops := reg.Counter("http_coalesced_ops_total", "").Value()
			const requests = singles + batches + singles/2
			if wantOps := int64(singles + batches*perBatch + singles/2); ops != wantOps {
				t.Fatalf("coalesced ops = %d, want %d", ops, wantOps)
			}
			if groups <= 0 || groups > requests {
				t.Fatalf("groups = %d for %d requests", groups, requests)
			}
			t.Logf("coalesced %d ops (%d requests) into %d groups", ops, requests, groups)
		})
	}
}
