package client

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adcache"
	"adcache/internal/cluster"
	"adcache/internal/cluster/chaos"
	"adcache/internal/server"
)

// TestE2EChaosCluster is the capstone chaos run: three real nodes on
// chaos listeners, concurrent writers and hedged readers through the
// resilient client, and a seeded, scripted fault timeline — brownout,
// client-side partition, node kill/restart, dropped acks — with manager
// moves (one doomed, one real) layered on top. The contract under all of
// it:
//
//   - zero lost acked writes: every value the client acked reads back at
//     least as new after the dust settles;
//   - bounded retries: the client paces itself with backoff and breakers
//     instead of retry-storming;
//   - breaker recovery: the killed node's breaker opens while it is down
//     and re-closes after restart;
//   - a move toward a dead node aborts for free; a move after recovery
//     completes and the fleet converges on its epoch.
func TestE2EChaosCluster(t *testing.T) {
	const (
		shards    = 8
		seed      = 1337
		chaosToke = "chaos-migration-token"
	)

	// Real listeners wrapped in chaos kill switches.
	ids := []string{"n1", "n2", "n3"}
	listeners := map[string]*chaos.Listener{}
	nodes := make([]cluster.Node, 0, len(ids))
	for _, id := range ids {
		raw, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer raw.Close()
		listeners[id] = chaos.NewListener(raw)
		nodes = append(nodes, cluster.Node{ID: id, Addr: raw.Addr().String()})
	}
	initial, err := cluster.InitialMap(nodes, shards)
	if err != nil {
		t.Fatal(err)
	}
	addrOf := map[string]string{}
	for _, n := range nodes {
		addrOf[n.ID] = n.Addr
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
		hs := &http.Server{Handler: server.New(db,
			server.WithCluster(view), server.WithInternalToken(chaosToke))}
		go hs.Serve(listeners[id])
		defer hs.Close()
	}

	// One seeded table shared by the client transport: same seed, same
	// fault sequence for a given request order.
	table := chaos.NewTable(seed)
	c, err := New([]string{nodes[0].Addr},
		WithHTTPClient(&http.Client{Transport: &chaos.Transport{Table: table, Source: "cli"}}),
		WithMaxRetries(500),
		WithRetryBackoff(2*time.Millisecond),
		WithBackoffCap(40*time.Millisecond),
		WithJitterSeed(seed),
		WithBreaker(5, 60*time.Millisecond),
		WithHedgedReads(15*time.Millisecond),
		WithRequestTimeout(2*time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var (
		mu    sync.Mutex
		acked = map[string]string{}
		seq   atomic.Int64
		gets  atomic.Int64
	)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil {
				// Per-writer key spaces with per-key monotonic sequence
				// values: the readback check can tell "newer than acked"
				// (a dropped ack that committed — fine) from loss.
				n := seq.Add(1)
				k := fmt.Sprintf("cz-w%d-%06d", w, n%128)
				v := fmt.Sprintf("w%d-%d", w, n)
				if err := c.PutCtx(ctx, []byte(k), []byte(v)); err != nil {
					if ctx.Err() == nil {
						errs <- fmt.Errorf("put %s: %w", k, err)
					}
					return
				}
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
				gets.Add(1)
			}
		}()
	}

	mgr, err := cluster.NewManager(initial, cluster.ManagerOptions{
		// Only MoveShard is called, so Interval sets just the probe
		// timeout, min(Interval, 2s).
		Interval:      500 * time.Millisecond,
		InternalToken: chaosToke,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	shardOfN1 := initial.OwnedBy("n1")[0]

	// The scripted fault timeline. Each phase holds long enough for the
	// client's retry budget (backoff cap 40ms) to ride through it.
	script := &chaos.Script{
		Logf: t.Logf,
		Steps: []chaos.Step{
			{Name: "healthy", Duration: 250 * time.Millisecond},
			{Name: "brownout-n2", Duration: 350 * time.Millisecond, Enter: func() {
				table.Set(addrOf["n2"], chaos.Rule{Latency: 20 * time.Millisecond, Jitter: 10 * time.Millisecond, SlowProb: 0.7})
			}},
			{Name: "partition-cli-n1", Duration: 300 * time.Millisecond, Enter: func() {
				table.Heal()
				table.SetPair("cli", addrOf["n1"], chaos.Rule{Partition: true})
			}},
			{Name: "kill-n3", Duration: 300 * time.Millisecond, Enter: func() {
				table.Heal()
				listeners["n3"].Kill()
				// A move toward the dead node must abort before fencing:
				// no epoch consumed, no revert, live traffic untouched.
				if err := mgr.MoveShard(context.Background(), shardOfN1, "n3"); err == nil ||
					!strings.Contains(err.Error(), "not ready") {
					errs <- fmt.Errorf("move to killed node = %v, want 'not ready' abort", err)
				}
				if got := mgr.Current().Epoch; got != initial.Epoch {
					errs <- fmt.Errorf("aborted move consumed epoch %d", got)
				}
			}},
			{Name: "restart-n3", Duration: 400 * time.Millisecond, Enter: func() {
				listeners["n3"].Restart()
			}},
			{Name: "move-under-load", Duration: 300 * time.Millisecond, Enter: func() {
				// The real move, mid-traffic, over the healed network.
				if err := mgr.MoveShard(context.Background(), shardOfN1, "n2"); err != nil {
					errs <- fmt.Errorf("post-recovery move: %w", err)
				}
			}},
			{Name: "drop-acks-n1", Duration: 300 * time.Millisecond, Enter: func() {
				table.Set(addrOf["n1"], chaos.Rule{DropResponseProb: 0.5})
			}},
			{Name: "heal", Duration: 300 * time.Millisecond, Enter: func() {
				table.Heal()
			}},
		},
	}
	script.Run(ctx)

	cancel()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("chaos run error: %v", err)
	}

	mu.Lock()
	ledger := make(map[string]string, len(acked))
	for k, v := range acked {
		ledger[k] = v
	}
	mu.Unlock()
	if len(ledger) == 0 {
		t.Fatal("no writes acked; the run exercised nothing")
	}

	// The move completed and the fleet converged on its epoch.
	cur := mgr.Current()
	if cur.Owner[shardOfN1] != "n2" || cur.Epoch != initial.Epoch+1 {
		t.Fatalf("post-move map = epoch %d owner[%d]=%q, want epoch %d on n2",
			cur.Epoch, shardOfN1, cur.Owner[shardOfN1], initial.Epoch+1)
	}
	for _, id := range ids {
		if got := views[id].Epoch(); got != cur.Epoch {
			t.Fatalf("node %s epoch = %d, want %d", id, got, cur.Epoch)
		}
	}

	// Zero lost acked writes: every ledger entry reads back with its acked
	// value or newer (a dropped ack that committed is newer, not lost).
	for k, v := range ledger {
		got, ok, err := c.Get([]byte(k))
		if err != nil {
			t.Fatalf("readback %s: %v", k, err)
		}
		if !ok {
			t.Fatalf("acked write %s lost", k)
		}
		if string(got) != v && writerSeq(t, string(got)) < writerSeq(t, v) {
			t.Fatalf("readback %s = %q, older than acked %q", k, got, v)
		}
	}

	st := c.Stats()
	totalOps := int64(len(ledger)) + gets.Load()
	t.Logf("acked=%d gets=%d retryable=%d terminal=%d breakerOpens=%d breakerCloses=%d hedges=%d hedgeWins=%d",
		len(ledger), gets.Load(), st.RetryableErrors, st.TerminalErrors,
		st.BreakerOpens, st.BreakerCloses, st.HedgedReads, st.HedgeWins)

	// The faults were felt — and retries stayed bounded. A client that
	// retry-storms (no backoff, no breaker) would rack up orders of
	// magnitude more retryable errors than operations in these windows.
	if st.RetryableErrors == 0 {
		t.Error("no retryable errors recorded; the chaos phases injected nothing")
	}
	if st.RetryableErrors > 100*totalOps {
		t.Errorf("retry storm: %d retryable errors for %d ops", st.RetryableErrors, totalOps)
	}
	// Breaker lifecycle: opened for the killed node, re-closed after its
	// restart (live traffic re-probed it).
	if st.BreakerOpens < 1 {
		t.Error("breaker never opened across a node kill")
	}
	if st.BreakerCloses < 1 {
		t.Error("breaker never re-closed after the node restarted")
	}
	if got := c.BreakerState(addrOf["n3"]); got != "closed" {
		t.Errorf("n3 breaker = %q after recovery, want closed", got)
	}
	// Hedged reads fired during the brownout.
	if st.HedgedReads == 0 {
		t.Error("no hedged reads fired despite a scripted brownout")
	}
}
