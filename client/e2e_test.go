package client

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adcache"
	"adcache/internal/cluster"
	"adcache/internal/server"
)

// writerSeq extracts the monotonic sequence number from a "w<id>-<n>" value.
func writerSeq(t *testing.T, v string) int64 {
	t.Helper()
	var w, n int64
	if _, err := fmt.Sscanf(v, "w%d-%d", &w, &n); err != nil {
		t.Fatalf("malformed value %q: %v", v, err)
	}
	return n
}

// TestE2EClusterMove is the end-to-end consistency check the sharding
// design promises: three real nodes on real sockets, a client writing and
// reading through the public library, and a manager-driven shard move in
// the middle of the traffic. Every write the client acked before, during,
// or after the move must read back correctly afterwards, with all
// WRONG_SHARD handling absorbed inside the client.
func TestE2EClusterMove(t *testing.T) {
	const shards = 8
	// Shared migration secret for nodes and manager (loopback-only test).
	const e2eToken = "e2e-migration-token"

	// Real listeners first: the shard map carries addresses, and nodes
	// need the map before they serve.
	ids := []string{"n1", "n2", "n3"}
	listeners := map[string]net.Listener{}
	nodes := make([]cluster.Node, 0, len(ids))
	for _, id := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		listeners[id] = ln
		nodes = append(nodes, cluster.Node{ID: id, Addr: ln.Addr().String()})
	}
	initial, err := cluster.InitialMap(nodes, shards)
	if err != nil {
		t.Fatal(err)
	}

	views := map[string]*cluster.NodeView{}
	for _, id := range ids {
		db, err := adcache.Open(adcache.Options{CacheBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		view, err := cluster.NewNodeView(id, initial)
		if err != nil {
			t.Fatal(err)
		}
		views[id] = view
		// Write coalescing on: the e2e consistency contract (no lost
		// acked writes across fenced moves) must hold with grouped
		// cross-request commits exactly as with per-request commits.
		hs := &http.Server{Handler: server.New(db,
			server.WithCluster(view), server.WithInternalToken(e2eToken),
			server.WithWriteCoalescing(150*time.Microsecond, 64))}
		go hs.Serve(listeners[id])
		defer hs.Close()
	}

	c, err := New([]string{nodes[0].Addr})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Concurrent writers keep acked values in a shared ledger; readers
	// hammer previously-acked keys throughout, including mid-move.
	var (
		mu    sync.Mutex
		acked = map[string]string{}
		seq   atomic.Int64
	)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil {
				// Keys are partitioned per writer: with a shared key, two
				// concurrent acks can land in the opposite order server-side
				// vs ledger-side, which is last-write-wins, not data loss.
				n := seq.Add(1)
				k := fmt.Sprintf("e2e-w%d-%06d", w, n%128)
				v := fmt.Sprintf("w%d-%d", w, n)
				if err := c.PutCtx(ctx, []byte(k), []byte(v)); err != nil {
					if ctx.Err() == nil {
						errs <- fmt.Errorf("put %s: %w", k, err)
					}
					return
				}
				// Only record after the ack: the ledger is exactly the
				// set of durability promises the cluster has made.
				mu.Lock()
				acked[k] = v
				mu.Unlock()
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				mu.Lock()
				var k string
				for k = range acked {
					break
				}
				mu.Unlock()
				if k == "" {
					time.Sleep(time.Millisecond)
					continue
				}
				if _, _, err := c.GetCtx(ctx, []byte(k)); err != nil && ctx.Err() == nil {
					errs <- fmt.Errorf("get %s: %w", k, err)
					return
				}
			}
		}()
	}

	// Let traffic build, then force two moves through the real manager
	// protocol while writes are in flight.
	time.Sleep(150 * time.Millisecond)
	mgr, err := cluster.NewManager(initial, cluster.ManagerOptions{
		InternalToken: e2eToken,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, move := range []struct {
		shard int
		to    string
	}{{0, "n2"}, {1, "n3"}} {
		if err := mgr.MoveShard(context.Background(), move.shard, move.to); err != nil {
			t.Fatalf("move %d: %v", i, err)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// Drain traffic.
	time.Sleep(150 * time.Millisecond)
	cancel()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("client error during move: %v", err)
	}

	cur := mgr.Current()
	if cur.Epoch != initial.Epoch+2 {
		t.Fatalf("manager epoch = %d, want %d", cur.Epoch, initial.Epoch+2)
	}
	if cur.Owner[0] != "n2" || cur.Owner[1] != "n3" {
		t.Fatalf("owners after moves = %v", cur.Owner[:2])
	}
	for _, id := range ids {
		if got := views[id].Epoch(); got != cur.Epoch {
			t.Fatalf("node %s epoch = %d, want %d", id, got, cur.Epoch)
		}
	}

	// The core assertion: zero lost acked writes. Read every ledger entry
	// back through the client against the post-move topology.
	mu.Lock()
	ledger := make(map[string]string, len(acked))
	for k, v := range acked {
		ledger[k] = v
	}
	mu.Unlock()
	if len(ledger) == 0 {
		t.Fatal("no writes were acked; test exercised nothing")
	}
	for k, v := range ledger {
		got, ok, err := c.Get([]byte(k))
		if err != nil {
			t.Fatalf("readback %s: %v", k, err)
		}
		if !ok {
			t.Fatalf("acked write %s lost after move", k)
		}
		// Per-writer values are "w<id>-<n>" with n strictly increasing per
		// key. A write cancelled mid-ack may still have landed, so the
		// stored value may be NEWER than the last acked one — that's
		// last-write-wins, not loss. Older (or cross-writer) is loss.
		if string(got) != v && writerSeq(t, string(got)) < writerSeq(t, v) {
			t.Fatalf("readback %s = %q, older than acked %q", k, got, v)
		}
	}

	// Retries happened (the move fenced live traffic) but stayed bounded:
	// well under one retry budget per operation means no retry storms.
	st := c.Stats()
	t.Logf("ledger=%d ops, wrongShardRetries=%d mapRefreshes=%d epoch=%d",
		len(ledger), st.WrongShardRetries, st.MapRefreshes, st.Epoch)
	if st.Epoch != cur.Epoch {
		t.Fatalf("client epoch = %d, want %d", st.Epoch, cur.Epoch)
	}
	if st.WrongShardRetries > int64(len(ledger))*2+100 {
		t.Fatalf("retry storm: %d retries for %d acked writes", st.WrongShardRetries, len(ledger))
	}
}
