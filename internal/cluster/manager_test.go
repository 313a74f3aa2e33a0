package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"adcache/internal/api"
	"adcache/internal/api/wire"
	"adcache/internal/cluster/chaos"
	"adcache/internal/metrics"
)

// fakeNode is a scripted cluster member: it serves canned shard stats and
// records every control-plane call the manager makes, in global order.
type fakeNode struct {
	id  string
	srv *httptest.Server

	mu          sync.Mutex
	stats       api.ShardStats
	view        *ShardMap
	log         *callLog
	data        []kv
	failExport  bool
	notReady    bool          // answer /v1/health with 503, like a draining node
	exportDelay time.Duration // stall /v1/migrate exports, like a browning-out source
	// export, when set, answers /v1/migrate exports in place of the canned
	// stream of data (called without mu: it may block on another node).
	export func(w http.ResponseWriter, r *http.Request)
	ln     *chaos.Listener // Kill severs the node's live connections
}

// kv is one entry of a fake node's slot.
type kv struct{ k, v string }

type callLog struct {
	mu    sync.Mutex
	calls []string
}

func (l *callLog) add(s string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.calls = append(l.calls, s)
}

func (l *callLog) all() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.calls...)
}

func newFakeNode(t *testing.T, id string, log *callLog) *fakeNode {
	f := &fakeNode{id: id, log: log}
	f.srv = httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/migrate" && r.Method == http.MethodGet {
			f.mu.Lock()
			d, export := f.exportDelay, f.export
			f.mu.Unlock()
			if d > 0 {
				select {
				case <-time.After(d):
				case <-r.Context().Done():
					return // caller gave up (copy deadline)
				}
			}
			if export != nil {
				f.log.add("export:" + f.id)
				export(w, r)
				return
			}
		}
		f.mu.Lock()
		defer f.mu.Unlock()
		switch {
		case r.URL.Path == "/v1/health":
			if f.notReady {
				http.Error(w, `{"status":"draining"}`, http.StatusServiceUnavailable)
				return
			}
			fmt.Fprint(w, `{"status":"ok"}`)
		case r.URL.Path == "/v1/shardstats":
			json.NewEncoder(w).Encode(f.stats)
		case r.URL.Path == "/v1/shardmap" && r.Method == http.MethodGet:
			if f.view == nil {
				http.Error(w, `{"code":"NOT_FOUND","message":"x"}`, 404)
				return
			}
			json.NewEncoder(w).Encode(f.view)
		case r.URL.Path == "/v1/shardmap" && r.Method == http.MethodPost:
			var m ShardMap
			json.NewDecoder(r.Body).Decode(&m)
			f.view = &m
			f.log.add(fmt.Sprintf("map:%s:e%d", f.id, m.Epoch))
			w.WriteHeader(204)
		case r.URL.Path == "/v1/migrate" && r.Method == http.MethodGet:
			if f.failExport {
				f.log.add("export-fail:" + f.id)
				http.Error(w, `{"code":"INTERNAL","message":"injected export failure"}`, 500)
				return
			}
			f.log.add("export:" + f.id)
			out := wire.AppendStreamHeader(nil)
			for _, e := range f.data {
				out = wire.AppendEntry(out, []byte(e.k), []byte(e.v))
			}
			w.Write(wire.AppendStreamEnd(out))
		case r.URL.Path == "/v1/migrate" && r.Method == http.MethodPost:
			n, err := f.load(r.Body)
			if err != nil {
				http.Error(w, `{"code":"BAD_BODY","message":"`+err.Error()+`"}`, 400)
				return
			}
			f.log.add(fmt.Sprintf("load:%s:%d", f.id, n))
			w.WriteHeader(204)
		case r.URL.Path == "/v1/migrate" && r.Method == http.MethodDelete:
			f.data = nil
			f.log.add("purge:" + f.id)
			w.WriteHeader(204)
		default:
			http.NotFound(w, r)
		}
	}))
	f.ln = chaos.NewListener(f.srv.Listener)
	f.srv.Listener = f.ln
	f.srv.Start()
	t.Cleanup(f.srv.Close)
	return f
}

// load appends a binary batch body's puts to the node's data (f.mu held).
func (f *fakeNode) load(r io.Reader) (int, error) {
	body, err := io.ReadAll(r)
	if err != nil {
		return 0, err
	}
	var dec wire.BatchDecoder
	if err := dec.Init(body); err != nil {
		return 0, err
	}
	for n := 0; ; n++ {
		_, k, v, err := dec.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		f.data = append(f.data, kv{string(k), string(v)})
	}
}

func (f *fakeNode) addr() string { return strings.TrimPrefix(f.srv.URL, "http://") }

func (f *fakeNode) currentView() *ShardMap {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.view
}

// setStats installs cumulative per-slot histograms: slot → (ops, sumNanos).
func (f *fakeNode) setStats(epoch uint64, shards int, load map[int][2]int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := api.ShardStats{Node: f.id, Epoch: epoch, Shards: make([]api.ShardStat, shards)}
	for s := 0; s < shards; s++ {
		st.Shards[s] = api.ShardStat{Shard: s}
		if l, ok := load[s]; ok {
			st.Shards[s].Reads = metrics.HistogramSnapshot{Count: l[0], Sum: l[1], Max: l[1]}
		}
	}
	f.stats = st
}

// TestManagerMovesHottestShard scripts a 2-node imbalance and checks the
// full fence → copy → publish → purge sequence and the resulting map.
func TestManagerMovesHottestShard(t *testing.T) {
	log := &callLog{}
	a := newFakeNode(t, "a", log)
	b := newFakeNode(t, "b", log)
	a.data = []kv{{"k1", "v1"}, {"k2", "v2"}}

	m := &ShardMap{
		Epoch:  1,
		Shards: 4,
		Nodes:  []Node{{ID: "a", Addr: a.addr()}, {ID: "b", Addr: b.addr()}},
		Owner:  []string{"a", "a", "a", "b"},
	}
	a.view, b.view = m, m

	mgr, err := NewManager(m, ManagerOptions{
		MinWindowOps:   10,
		ImbalanceRatio: 1.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Poll 1: all zeros — establishes baselines, no move.
	a.setStats(1, 4, nil)
	b.setStats(1, 4, nil)
	if moved, err := mgr.RebalanceOnce(ctx); err != nil || moved {
		t.Fatalf("baseline poll: moved=%v err=%v", moved, err)
	}

	// Poll 2: node a is hot — slot 0 carries 60ms, slot 1 carries 40ms;
	// node b idles at 10ms on slot 3. Gap = 90ms; moving slot 1 (2×40
	// vs gap → score 10) narrows it best.
	a.setStats(1, 4, map[int][2]int64{0: {100, 60e6}, 1: {100, 40e6}})
	b.setStats(1, 4, map[int][2]int64{3: {20, 10e6}})
	moved, err := mgr.RebalanceOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !moved {
		t.Fatal("manager did not move a shard")
	}

	cur := mgr.Current()
	if cur.Epoch != 2 || cur.Owner[1] != "b" || cur.Owner[0] != "a" {
		t.Fatalf("map after move = %+v", cur)
	}
	if mgr.Moves() != 1 {
		t.Fatalf("moves = %d", mgr.Moves())
	}

	// The protocol order is the consistency contract: fence old owner,
	// export from it, load into the new owner, publish, purge.
	want := []string{"map:a:e2", "purge:b", "export:a", "load:b:2", "map:b:e2", "purge:a"}
	got := log.all()
	if len(got) != len(want) {
		t.Fatalf("calls = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("call %d = %q, want %q (all: %v)", i, got[i], want[i], got)
		}
	}
	// The moved data landed on b.
	if len(b.data) != 2 || b.data[0] != (kv{"k1", "v1"}) {
		t.Fatalf("b.data = %+v", b.data)
	}

	// Cooldown: an immediate further imbalance is ignored.
	a.setStats(1, 4, map[int][2]int64{0: {200, 120e6}})
	b.setStats(1, 4, map[int][2]int64{3: {40, 20e6}})
	if moved, _ := mgr.RebalanceOnce(ctx); moved {
		t.Fatal("moved during cooldown")
	}
}

// TestManagerRevertsFailedMove: a move failing after its fence has
// consumed an epoch. The manager must not leave the slot fenced or ever
// re-mint that epoch with different contents — it publishes a revert map
// at the following epoch restoring the old owner, which still holds all
// the data because the purge runs strictly last.
func TestManagerRevertsFailedMove(t *testing.T) {
	log := &callLog{}
	a := newFakeNode(t, "a", log)
	b := newFakeNode(t, "b", log)
	a.failExport = true
	a.data = []kv{{"k1", "v1"}}

	m := &ShardMap{
		Epoch:  1,
		Shards: 4,
		Nodes:  []Node{{ID: "a", Addr: a.addr()}, {ID: "b", Addr: b.addr()}},
		Owner:  []string{"a", "a", "a", "b"},
	}
	a.view, b.view = m, m
	mgr, err := NewManager(m, ManagerOptions{})
	if err != nil {
		t.Fatal(err)
	}

	if err := mgr.MoveShard(context.Background(), 0, "b"); err == nil {
		t.Fatal("move with failing export reported success")
	}
	cur := mgr.Current()
	if cur.Epoch != 3 || cur.Owner[0] != "a" {
		t.Fatalf("manager map after failed move = epoch %d owner[0]=%q, want epoch 3 owned by a", cur.Epoch, cur.Owner[0])
	}
	// The whole fleet — including the fenced node — converged on the
	// revert map, so the slot is servable again.
	for _, f := range []*fakeNode{a, b} {
		v := f.currentView()
		if v.Epoch != 3 || v.Owner[0] != "a" {
			t.Fatalf("node %s map = epoch %d owner[0]=%q, want revert epoch 3 owned by a", f.id, v.Epoch, v.Owner[0])
		}
	}
	// Fence, destination cleared, failed export, then the revert publishes
	// and clears the destination again — no load, and the old owner is
	// never purged.
	want := []string{"map:a:e2", "purge:b", "export-fail:a", "map:a:e3", "map:b:e3", "purge:b"}
	got := log.all()
	if len(got) != len(want) {
		t.Fatalf("calls = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("call %d = %q, want %q (all: %v)", i, got[i], want[i], got)
		}
	}
	if len(a.data) != 1 {
		t.Fatalf("old owner's data disturbed by failed move: %+v", a.data)
	}
	// The next move mints a fresh epoch past the revert.
	a.failExport = false
	if err := mgr.MoveShard(context.Background(), 0, "b"); err != nil {
		t.Fatal(err)
	}
	if got := mgr.Current().Epoch; got != 4 {
		t.Fatalf("epoch after retried move = %d, want 4", got)
	}
}

// TestManagerBalancedNoMove: near-even load must not trigger churn.
func TestManagerBalancedNoMove(t *testing.T) {
	log := &callLog{}
	a := newFakeNode(t, "a", log)
	b := newFakeNode(t, "b", log)
	m := &ShardMap{
		Epoch:  1,
		Shards: 4,
		Nodes:  []Node{{ID: "a", Addr: a.addr()}, {ID: "b", Addr: b.addr()}},
		Owner:  []string{"a", "a", "b", "b"},
	}
	mgr, err := NewManager(m, ManagerOptions{MinWindowOps: 10})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	a.setStats(1, 4, nil)
	b.setStats(1, 4, nil)
	mgr.RebalanceOnce(ctx)
	a.setStats(1, 4, map[int][2]int64{0: {100, 50e6}, 1: {100, 45e6}})
	b.setStats(1, 4, map[int][2]int64{2: {100, 48e6}, 3: {100, 40e6}})
	if moved, err := mgr.RebalanceOnce(ctx); err != nil || moved {
		t.Fatalf("balanced fleet: moved=%v err=%v", moved, err)
	}
	if len(log.all()) != 0 {
		t.Fatalf("control calls on balanced fleet: %v", log.all())
	}
}

// TestManagerSyncMap: a restarted manager adopts the highest epoch any
// node holds before publishing.
func TestManagerSyncMap(t *testing.T) {
	log := &callLog{}
	a := newFakeNode(t, "a", log)
	b := newFakeNode(t, "b", log)
	m := &ShardMap{
		Epoch:  1,
		Shards: 4,
		Nodes:  []Node{{ID: "a", Addr: a.addr()}, {ID: "b", Addr: b.addr()}},
		Owner:  []string{"a", "a", "b", "b"},
	}
	newer, _ := m.WithMove(0, "b")
	newer2, _ := newer.WithMove(1, "b")
	a.view = newer
	b.view = newer2
	mgr, err := NewManager(m, ManagerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.SyncMap(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := mgr.Current().Epoch; got != 3 {
		t.Fatalf("synced epoch = %d, want 3", got)
	}
	if mgr.Current().Owner[1] != "b" {
		t.Fatalf("synced map = %+v", mgr.Current())
	}
}

// TestManagerMinWindowOps: thin windows never trigger moves.
func TestManagerMinWindowOps(t *testing.T) {
	log := &callLog{}
	a := newFakeNode(t, "a", log)
	b := newFakeNode(t, "b", log)
	m := &ShardMap{
		Epoch:  1,
		Shards: 2,
		Nodes:  []Node{{ID: "a", Addr: a.addr()}, {ID: "b", Addr: b.addr()}},
		Owner:  []string{"a", "b"},
	}
	mgr, err := NewManager(m, ManagerOptions{MinWindowOps: 1000})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	a.setStats(1, 2, nil)
	b.setStats(1, 2, nil)
	mgr.RebalanceOnce(ctx)
	a.setStats(1, 2, map[int][2]int64{0: {50, 100e6}})
	b.setStats(1, 2, nil)
	if moved, _ := mgr.RebalanceOnce(ctx); moved {
		t.Fatal("moved on a thin window")
	}
}
