package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"adcache"
	"adcache/internal/api/wire"
	"adcache/internal/cluster"
	"adcache/internal/vfs"
)

// Migration end to end: real nodes of this package behind real listeners,
// driven by the real shard manager.

// migNode is one live cluster member.
type migNode struct {
	db   *adcache.DB
	view *cluster.NodeView
	url  string
}

// migrateChunk is the shard manager's copy chunk: the entries it forwards
// per bulk-load request. A test that needs a copy of several chunks writes
// more entries than this into the slot; if the manager's chunk grows past
// it, those tests fail rather than pass on a one-chunk copy.
const migrateChunk = 1024

// migFleet starts nodes a and b over 4 slots (a owns 0 and 1) and a
// shard manager. wrap, where non-nil for a node ID,
// wraps that node's handler — the tests' fault-injection point; fsA, when
// non-nil, backs node a's engine.
func migFleet(t *testing.T, fsA vfs.FS, wrap map[string]func(http.Handler) http.Handler) (a, b *migNode, mgr *cluster.Manager) {
	t.Helper()
	ids := []string{"a", "b"}
	srvs := make([]*httptest.Server, len(ids))
	var nodes []cluster.Node
	for i, id := range ids {
		srvs[i] = httptest.NewUnstartedServer(nil)
		nodes = append(nodes, cluster.Node{ID: id, Addr: srvs[i].Listener.Addr().String()})
	}
	m := &cluster.ShardMap{Epoch: 1, Shards: 4, Nodes: nodes, Owner: []string{"a", "a", "b", "b"}}
	out := make([]*migNode, len(ids))
	for i, id := range ids {
		opts := adcache.Options{CacheBytes: 64 << 10}
		if id == "a" && fsA != nil {
			opts.FS = fsA
		}
		db, err := adcache.Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		view, err := cluster.NewNodeView(id, m)
		if err != nil {
			t.Fatal(err)
		}
		h := New(db, WithCluster(view), WithInternalToken(testToken))
		if w := wrap[id]; w != nil {
			h = w(h)
		}
		srvs[i].Config.Handler = h
		srvs[i].Start()
		srv := srvs[i]
		t.Cleanup(func() {
			srv.Close()
			db.Close()
		})
		out[i] = &migNode{db: db, view: view, url: srv.URL}
	}
	mgr, err := cluster.NewManager(m, cluster.ManagerOptions{InternalToken: testToken})
	if err != nil {
		t.Fatal(err)
	}
	return out[0], out[1], mgr
}

// slotKeys returns n distinct keys of slot (of 4), in key order.
func slotKeys(slot, n int) []string {
	var out []string
	for i := 0; len(out) < n; i++ {
		if k := fmt.Sprintf("key%05d", i); cluster.ShardOf([]byte(k), 4) == slot {
			out = append(out, k)
		}
	}
	return out
}

// TestMigrateRevertedMoveDoesNotResurrect: a move that fails after its
// first chunk was loaded leaves a partial copy on the destination. A key
// of that copy deleted on the (restored) owner before the next, successful
// move of the slot must stay deleted on the new owner: a node loads a slot
// it does not own starting from empty.
func TestMigrateRevertedMoveDoesNotResurrect(t *testing.T) {
	var loads, failAt atomic.Int32
	failAt.Store(2)
	a, b, mgr := migFleet(t, nil, map[string]func(http.Handler) http.Handler{
		"b": func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/v1/migrate" && r.Method == http.MethodPost && loads.Add(1) == failAt.Load() {
					http.Error(w, `{"code":"INTERNAL","message":"injected load failure"}`, 500)
					return
				}
				next.ServeHTTP(w, r)
			})
		},
	})
	// One entry more than a chunk: keys[0] travels in the first load, the
	// last key in the second, which fails.
	keys := slotKeys(0, migrateChunk+1)
	batch := a.db.NewBatch()
	for _, k := range keys {
		batch.Put([]byte(k), []byte("v"))
	}
	if err := a.db.Apply(batch); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	if err := mgr.MoveShard(ctx, 0, "b"); err == nil {
		t.Fatal("move with a failing second load reported success")
	}
	if mgr.Reverts() != 1 || !a.view.OwnsShard(0) {
		t.Fatalf("reverts = %d, a owns slot 0 = %v; want the move reverted", mgr.Reverts(), a.view.OwnsShard(0))
	}
	// The restored owner serves the slot again; delete the key whose copy
	// reached b.
	if resp, body := do(t, "DELETE", a.url+"/v1/kv/"+keys[0], ""); resp.StatusCode != 204 {
		t.Fatalf("DELETE on restored owner = %d %q", resp.StatusCode, body)
	}
	failAt.Store(0)
	if err := mgr.MoveShard(ctx, 0, "b"); err != nil {
		t.Fatalf("second move: %v", err)
	}
	if resp, body := do(t, "GET", b.url+"/v1/kv/"+keys[0], ""); resp.StatusCode != 404 {
		t.Fatalf("GET deleted key on the new owner = %d %q, want 404: the reverted move's copy resurrected it", resp.StatusCode, body)
	}
	if resp, body := do(t, "GET", b.url+"/v1/kv/"+keys[1], ""); resp.StatusCode != 200 || body != "v" {
		t.Fatalf("GET surviving key on the new owner = %d %q", resp.StatusCode, body)
	}
}

// tripWriter runs trip before the first Write made once at least after
// bytes of the response have been written.
type tripWriter struct {
	http.ResponseWriter
	after   int
	written int
	trip    func()
}

func (t *tripWriter) Write(p []byte) (int, error) {
	if t.trip != nil && t.written >= t.after {
		t.trip()
		t.trip = nil
	}
	t.written += len(p)
	return t.ResponseWriter.Write(p)
}

func (t *tripWriter) Flush() { t.ResponseWriter.(http.Flusher).Flush() }

// TestMigrateExportCutByEngineError: the source's engine starts failing
// reads once more than a chunk of the export has been sent. The response must
// end without its end frame, and the manager must treat the slot as not
// copied: revert, publish nothing, and leave no partial copy behind.
func TestMigrateExportCutByEngineError(t *testing.T) {
	ffs := vfs.NewFault(vfs.NewMem())
	// About 1.4 MiB in slot 0, on disk: over a chunk and a half of export,
	// none of it in the 64 KiB cache.
	value := make([]byte, 1024)
	keys := slotKeys(0, migrateChunk+400)
	entry := len(wire.AppendEntry(nil, []byte(keys[0]), value)) // every key is as long
	var loads atomic.Int32
	a, b, mgr := migFleet(t, ffs, map[string]func(http.Handler) http.Handler{
		"a": func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/v1/migrate" && r.Method == http.MethodGet {
					// The bytes sent before the trip hold more than a chunk.
					w = &tripWriter{ResponseWriter: w, after: (migrateChunk + 1) * entry,
						trip: func() { ffs.SetFailReads(true) }}
				}
				next.ServeHTTP(w, r)
			})
		},
		"b": func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/v1/migrate" && r.Method == http.MethodPost {
					loads.Add(1)
				}
				next.ServeHTTP(w, r)
			})
		},
	})
	batch := a.db.NewBatch()
	for _, k := range keys {
		batch.Put([]byte(k), value)
	}
	if err := a.db.Apply(batch); err != nil {
		t.Fatal(err)
	}
	if err := a.db.Flush(); err != nil {
		t.Fatal(err)
	}

	err := mgr.MoveShard(context.Background(), 0, "b")
	ffs.SetFailReads(false)
	if !errors.Is(err, wire.ErrTruncated) {
		t.Fatalf("move = %v, want the export reported truncated", err)
	}
	if mgr.Reverts() != 1 || mgr.Moves() != 0 {
		t.Fatalf("reverts = %d moves = %d, want 1 and 0", mgr.Reverts(), mgr.Moves())
	}
	for id, n := range map[string]*migNode{"a": a, "b": b} {
		if n.view.Epoch() != 3 || n.view.Current().Owner[0] != "a" {
			t.Fatalf("node %s map = epoch %d owner[0]=%q, want revert epoch 3 owned by a",
				id, n.view.Epoch(), n.view.Current().Owner[0])
		}
	}
	// A chunk did reach b before the cut; the revert purged it.
	if loads.Load() == 0 {
		t.Fatal("no chunk was loaded into the destination before the cut")
	}
	if got := contents(t, b.db); len(got) != 0 {
		t.Fatalf("destination kept %d entries of the failed copy", len(got))
	}
	// The owner still has and serves everything.
	if resp, _ := do(t, "GET", a.url+"/v1/kv/"+keys[len(keys)-1], ""); resp.StatusCode != 200 {
		t.Fatalf("GET on the restored owner = %d", resp.StatusCode)
	}
}
