package cluster

import (
	"context"
	"strings"
	"testing"
	"time"
)

// TestMoveShardAbortsOnDeadDestination: a move toward a node failing its
// health probe must abort before the fence — a free abort that consumes
// no epoch, touches no node, and needs no revert.
func TestMoveShardAbortsOnDeadDestination(t *testing.T) {
	log := &callLog{}
	a := newFakeNode(t, "a", log)
	b := newFakeNode(t, "b", log)
	b.notReady = true

	m := &ShardMap{
		Epoch:  1,
		Shards: 4,
		Nodes:  []Node{{ID: "a", Addr: a.addr()}, {ID: "b", Addr: b.addr()}},
		Owner:  []string{"a", "a", "a", "b"},
	}
	mgr, err := NewManager(m, ManagerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	err = mgr.MoveShard(context.Background(), 0, "b")
	if err == nil || !strings.Contains(err.Error(), "not ready") {
		t.Fatalf("move to unready destination = %v, want 'not ready' abort", err)
	}
	if got := mgr.Current().Epoch; got != 1 {
		t.Fatalf("aborted move consumed an epoch: %d, want 1", got)
	}
	if mgr.Reverts() != 0 {
		t.Fatalf("aborted move counted as revert: %d", mgr.Reverts())
	}
	if calls := log.all(); len(calls) != 0 {
		t.Fatalf("aborted move made control calls: %v", calls)
	}

	// A dead source aborts identically — nothing to fence means nothing
	// fenced.
	b.mu.Lock()
	b.notReady = false
	b.mu.Unlock()
	a.srv.Close()
	err = mgr.MoveShard(context.Background(), 0, "b")
	if err == nil || !strings.Contains(err.Error(), "not ready") {
		t.Fatalf("move from dead source = %v, want 'not ready' abort", err)
	}
	if got := mgr.Current().Epoch; got != 1 {
		t.Fatalf("aborted move consumed an epoch: %d, want 1", got)
	}
}

// TestMoveShardCopyDeadlineReverts: a copy stalled past CopyDeadline must
// abort the move and publish a revert map instead of holding the slot
// fenced for as long as the source cares to stall.
func TestMoveShardCopyDeadlineReverts(t *testing.T) {
	log := &callLog{}
	a := newFakeNode(t, "a", log)
	b := newFakeNode(t, "b", log)
	a.data = []kv{{"k1", "v1"}}
	a.exportDelay = 5 * time.Second

	m := &ShardMap{
		Epoch:  1,
		Shards: 4,
		Nodes:  []Node{{ID: "a", Addr: a.addr()}, {ID: "b", Addr: b.addr()}},
		Owner:  []string{"a", "a", "a", "b"},
	}
	a.view, b.view = m, m
	mgr, err := NewManager(m, ManagerOptions{CopyDeadline: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = mgr.MoveShard(context.Background(), 0, "b")
	if err == nil || !strings.Contains(err.Error(), "fetch shard") {
		t.Fatalf("stalled copy = %v, want fetch failure", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("move took %s; copy deadline did not bound the stall", elapsed)
	}
	if mgr.Reverts() != 1 {
		t.Fatalf("reverts = %d, want 1", mgr.Reverts())
	}
	cur := mgr.Current()
	if cur.Epoch != 3 || cur.Owner[0] != "a" {
		t.Fatalf("map after deadline revert = epoch %d owner[0]=%q, want epoch 3 owned by a", cur.Epoch, cur.Owner[0])
	}
	// Fence at e2 and the destination cleared, then the revert publishes e3
	// to both nodes and clears the destination again — no load, the old
	// owner never purged, and the consumed epoch is never re-minted.
	want := []string{"map:a:e2", "purge:b", "map:a:e3", "map:b:e3", "purge:b"}
	got := log.all()
	if len(got) != len(want) {
		t.Fatalf("calls = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("call %d = %q, want %q (all: %v)", i, got[i], want[i], got)
		}
	}
}

// TestRevertTicksCooldownOnce: a failed-and-reverted move must charge the
// cooldown window exactly once, so a persistently failing move paces
// itself like a successful one instead of burning an epoch every poll.
func TestRevertTicksCooldownOnce(t *testing.T) {
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
	mgr, err := NewManager(m, ManagerOptions{
		MinWindowOps: 10,
		Cooldown:     time.Hour, // any second move within this test is a bug
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	if err := mgr.MoveShard(ctx, 0, "b"); err == nil {
		t.Fatal("move with failing export reported success")
	}
	if mgr.Reverts() != 1 {
		t.Fatalf("reverts = %d, want 1", mgr.Reverts())
	}
	epochAfterRevert := mgr.Current().Epoch

	// The fleet still looks wildly imbalanced — but the revert started the
	// cooldown clock, so the next cycles must not re-attempt the move (and
	// must not burn another fence+revert epoch pair).
	a.setStats(1, 4, nil)
	b.setStats(1, 4, nil)
	mgr.RebalanceOnce(ctx) // baseline
	a.setStats(1, 4, map[int][2]int64{0: {200, 120e6}})
	b.setStats(1, 4, map[int][2]int64{3: {20, 10e6}})
	for i := 0; i < 3; i++ {
		if moved, err := mgr.RebalanceOnce(ctx); err != nil || moved {
			t.Fatalf("cycle %d after revert: moved=%v err=%v, want cooldown hold", i, moved, err)
		}
	}
	if got := mgr.Current().Epoch; got != epochAfterRevert {
		t.Fatalf("epoch crept from %d to %d during cooldown", epochAfterRevert, got)
	}
	if mgr.Reverts() != 1 {
		t.Fatalf("reverts after cooldown cycles = %d, want still 1", mgr.Reverts())
	}
}

// TestRebalanceSkipsDeadNode: one unreachable node must not halt
// rebalancing between the live ones, and its stale baseline must be
// dropped so a restart re-baselines instead of diffing against pre-crash
// counters.
func TestRebalanceSkipsDeadNode(t *testing.T) {
	log := &callLog{}
	a := newFakeNode(t, "a", log)
	b := newFakeNode(t, "b", log)
	c := newFakeNode(t, "c", log)
	a.data = []kv{{"k1", "v1"}}

	m := &ShardMap{
		Epoch:  1,
		Shards: 6,
		Nodes:  []Node{{ID: "a", Addr: a.addr()}, {ID: "b", Addr: b.addr()}, {ID: "c", Addr: c.addr()}},
		Owner:  []string{"a", "a", "a", "b", "b", "c"},
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

	c.srv.Close() // node c is down for the whole test

	a.setStats(1, 6, nil)
	b.setStats(1, 6, nil)
	if moved, err := mgr.RebalanceOnce(ctx); err != nil || moved {
		t.Fatalf("baseline with dead node: moved=%v err=%v", moved, err)
	}
	a.setStats(1, 6, map[int][2]int64{0: {100, 60e6}, 1: {100, 40e6}})
	b.setStats(1, 6, map[int][2]int64{3: {20, 10e6}})
	moved, err := mgr.RebalanceOnce(ctx)
	if err != nil {
		t.Fatalf("rebalance with dead node: %v", err)
	}
	if !moved {
		t.Fatal("dead node halted rebalancing between live nodes")
	}
	cur := mgr.Current()
	if cur.Owner[1] != "b" {
		t.Fatalf("map after move = %+v, want shard 1 on b", cur)
	}
	// The dead node never had a baseline retained.
	mgr.mu.Lock()
	_, hasDead := mgr.prev["c"]
	mgr.mu.Unlock()
	if hasDead {
		t.Fatal("dead node's baseline retained; restart would diff against pre-crash counters")
	}
}
