package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"adcache/internal/api/wire"
	"adcache/internal/cluster/chaos"
)

// streamFleet is two fake nodes, a owning slot 0, and a manager whose
// chunk holds two entries.
func streamFleet(t *testing.T) (a, b *fakeNode, log *callLog, mgr *Manager) {
	t.Helper()
	log = &callLog{}
	a, b = newFakeNode(t, "a", log), newFakeNode(t, "b", log)
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
	mgr.migrateChunk, mgr.copyDeadline = 2, 5*time.Second
	return a, b, log, mgr
}

// entries appends n stream entries numbered from first.
func entries(dst []byte, first, n int) []byte {
	for i := first; i < first+n; i++ {
		dst = wire.AppendEntry(dst, []byte(fmt.Sprintf("k%03d", i)), []byte("v"))
	}
	return dst
}

// mustRevert checks a failed move: reported, rolled forward to a revert
// map restoring a on every node, and the new map never published — no
// node ever saw an epoch under which b owns slot 0.
func mustRevert(t *testing.T, err error, a, b *fakeNode, log *callLog, mgr *Manager) {
	t.Helper()
	if err == nil {
		t.Fatal("move over a cut export reported success")
	}
	if mgr.Reverts() != 1 || mgr.Moves() != 0 {
		t.Fatalf("reverts = %d moves = %d, want 1 and 0", mgr.Reverts(), mgr.Moves())
	}
	for _, f := range []*fakeNode{a, b} {
		if v := f.currentView(); v.Epoch != 3 || v.Owner[0] != "a" {
			t.Fatalf("node %s map = epoch %d owner[0]=%q, want revert epoch 3 owned by a", f.id, v.Epoch, v.Owner[0])
		}
	}
	for _, c := range log.all() {
		if c == "map:b:e2" {
			t.Fatalf("the move's map reached the destination: %v", log.all())
		}
		if c == "purge:a" {
			t.Fatalf("the old owner was purged: %v", log.all())
		}
	}
}

// TestMigrateStreamCutReverts: an export that ends before its end frame
// must fail the move however it was cut — the source stopping after a
// flush (what a node does on an engine error mid-stream), its connection
// dying, or a chunk's ack getting lost. What was loaded before the cut is
// never published.
func TestMigrateStreamCutReverts(t *testing.T) {
	t.Run("source stops before the end frame", func(t *testing.T) {
		a, b, log, mgr := streamFleet(t)
		a.export = func(w http.ResponseWriter, r *http.Request) {
			w.Write(entries(wire.AppendStreamHeader(nil), 0, 3))
			w.(http.Flusher).Flush()
			// Return without the end frame: a clean but truncated body.
		}
		err := mgr.MoveShard(context.Background(), 0, "b")
		mustRevert(t, err, a, b, log, mgr)
		if !errors.Is(err, wire.ErrTruncated) {
			t.Fatalf("move error = %v, want wire.ErrTruncated", err)
		}
		// The first chunk had been forwarded before the cut was seen.
		if calls := strings.Join(log.all(), " "); !strings.Contains(calls, "load:b:2") {
			t.Fatalf("calls = %s, want the first chunk loaded before the cut", calls)
		}
	})
	t.Run("connection dropped mid-stream", func(t *testing.T) {
		a, b, log, mgr := streamFleet(t)
		a.export = func(w http.ResponseWriter, r *http.Request) {
			w.Write(entries(wire.AppendStreamHeader(nil), 0, 3))
			w.(http.Flusher).Flush()
			a.ln.Kill()
			a.ln.Restart() // the node comes straight back: the revert must reach it
		}
		err := mgr.MoveShard(context.Background(), 0, "b")
		mustRevert(t, err, a, b, log, mgr)
	})
	t.Run("chunk ack dropped", func(t *testing.T) {
		a, b, log, mgr := streamFleet(t)
		table := chaos.NewTable(1)
		mgr.httpc.Transport = &chaos.Transport{Table: table}
		a.export = func(w http.ResponseWriter, r *http.Request) {
			// From the first exported byte on, b commits what it is sent but
			// its answers are lost.
			table.Set(b.addr(), chaos.Rule{DropResponseProb: 1})
			w.Write(wire.AppendStreamEnd(entries(wire.AppendStreamHeader(nil), 0, 3)))
		}
		err := mgr.MoveShard(context.Background(), 0, "b")
		table.Heal()
		if err == nil {
			t.Fatal("move with a lost chunk ack reported success")
		}
		// The revert's own calls to b lost their answers too, so only the
		// manager and the old owner are known to hold the revert map.
		if cur := mgr.Current(); cur.Epoch != 3 || cur.Owner[0] != "a" || mgr.Reverts() != 1 {
			t.Fatalf("manager map = epoch %d owner[0]=%q reverts=%d, want a revert at epoch 3", cur.Epoch, cur.Owner[0], mgr.Reverts())
		}
		if v := a.currentView(); v.Epoch != 3 || v.Owner[0] != "a" {
			t.Fatalf("old owner's map = epoch %d owner[0]=%q, want epoch 3 owned by a", v.Epoch, v.Owner[0])
		}
		for _, c := range log.all() {
			if c == "map:b:e2" || c == "purge:a" {
				t.Fatalf("move published or purged after a failed load: %v", log.all())
			}
		}
	})
}

// TestMigrateManagerHoldsOneChunk: the manager forwards the export as it
// arrives. The source here withholds everything after the first chunk
// until the destination has received a load — a manager that buffered the
// export before loading would never get there.
func TestMigrateManagerHoldsOneChunk(t *testing.T) {
	a, b, log, mgr := streamFleet(t)
	a.export = func(w http.ResponseWriter, r *http.Request) {
		w.Write(entries(wire.AppendStreamHeader(nil), 0, 2))
		w.(http.Flusher).Flush()
		deadline := time.After(4 * time.Second)
		for loaded := false; !loaded; {
			select {
			case <-deadline:
				return // leaves the stream cut: the move fails
			case <-time.After(time.Millisecond):
				loaded = strings.Contains(strings.Join(log.all(), " "), "load:b:2")
			}
		}
		w.Write(wire.AppendStreamEnd(entries(nil, 2, 3)))
	}
	if err := mgr.MoveShard(context.Background(), 0, "b"); err != nil {
		t.Fatalf("move = %v: the first chunk was not loaded while the export was still open", err)
	}
	// 5 entries in chunks of 2: no load ever carried more than a chunk.
	want := []string{"map:a:e2", "purge:b", "export:a", "load:b:2", "load:b:2", "load:b:1", "map:b:e2", "purge:a"}
	if got := log.all(); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("calls = %v, want %v", got, want)
	}
	if len(b.data) != 5 || b.data[4] != (kv{"k004", "v"}) {
		t.Fatalf("destination holds %+v", b.data)
	}
}
