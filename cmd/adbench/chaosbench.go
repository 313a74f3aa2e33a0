package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"adcache"
	"adcache/client"
	"adcache/internal/cluster"
	"adcache/internal/cluster/chaos"
	"adcache/internal/metrics"
	"adcache/internal/server"
)

// The chaos benchmark is the robustness headline: a three-node fleet with
// the shard manager online, concurrent writers and hedged readers through
// the resilient client, and a seeded scripted fault timeline — healthy
// baseline, single-node brownout, node kill and restart, dropped acks —
// measured per phase and held to hard gates:
//
//   - zero acked-write loss: every write the client acked reads back at
//     least as new after the network heals;
//   - error rate ≤ 1%: retries, breakers, and hedging absorb the faults
//     instead of surfacing them;
//   - read p99 during the single-node brownout ≤ 3× the healthy read
//     p99: hedged reads route around the slow node's tail;
//   - breaker lifecycle observed: the killed node's breaker opens while
//     it is down and re-closes after restart.
//
// Every random decision — workload and faults — draws from seeded PRNGs,
// so a given seed replays the same run.

// chaosPhaseOut is one scripted phase's measured window.
type chaosPhaseOut struct {
	Name       string  `json:"name"`
	Seconds    float64 `json:"seconds"`
	Ops        int64   `json:"ops"`
	QPS        float64 `json:"qps"`
	ReadP50Ms  float64 `json:"read_p50_ms"`
	ReadP99Ms  float64 `json:"read_p99_ms"`
	WriteP99Ms float64 `json:"write_p99_ms"`
	Errors     int64   `json:"errors"`
}

// chaosGates is the pass/fail record committed with the numbers.
type chaosGates struct {
	ZeroAckedWriteLoss bool `json:"zero_acked_write_loss"`
	ErrorRateLE1Pct    bool `json:"error_rate_le_1pct"`
	BrownoutP99LE3x    bool `json:"brownout_read_p99_le_3x_healthy"`
	BreakerReclosed    bool `json:"breaker_reclosed"`
}

// chaosBenchOut is the committed BENCH_CHAOS.json artifact.
type chaosBenchOut struct {
	Seed          int64   `json:"seed"`
	Nodes         int     `json:"nodes"`
	Shards        int     `json:"shards"`
	Workers       int     `json:"workers"`
	Keys          int     `json:"keys"`
	ReadFraction  float64 `json:"read_fraction"`
	ServiceTimeMs float64 `json:"service_time_ms"`

	Phases []chaosPhaseOut `json:"phases"`

	HealthyReadP99Ms  float64 `json:"healthy_read_p99_ms"`
	BrownoutReadP99Ms float64 `json:"brownout_read_p99_ms"`
	BrownoutTailRatio float64 `json:"brownout_tail_ratio"`

	AckedWrites     int64 `json:"acked_writes"`
	LostAckedWrites int64 `json:"lost_acked_writes"`
	TotalOps        int64 `json:"total_ops"`
	Errors          int64 `json:"errors"`

	RetryableErrors   int64  `json:"retryable_errors"`
	BreakerOpens      int64  `json:"breaker_opens"`
	BreakerCloses     int64  `json:"breaker_closes"`
	BreakerFinalState string `json:"breaker_final_state"`
	HedgedReads       int64  `json:"hedged_reads"`
	HedgeWins         int64  `json:"hedge_wins"`

	Gates chaosGates `json:"gates"`
}

// chaosPhaseAgg accumulates one phase's samples while the run is live.
type chaosPhaseAgg struct {
	readH, writeH metrics.Histogram
	errs          atomic.Int64
	start, end    time.Time
}

func runChaosBench(seed int64, asJSON bool, path string) error {
	const (
		nNodes   = 3
		nShards  = cluster.DefaultShards
		workers  = 8
		nKeys    = 2048
		readFrac = 0.90
		// Every data request costs serviceTime server-side, so the healthy
		// tail is set by a known floor rather than scheduler noise, and the
		// brownout gate (≤ 3× healthy) has a stable denominator.
		serviceTime = 8 * time.Millisecond
		valueSize   = 128
		benchToken  = "adbench-chaos-token"
		// The brownout: a minority of requests to one node stall far past
		// the 3× budget, so an unhedged client CANNOT pass the tail gate —
		// the hedge (fired well inside the budget, usually landing on a
		// fast draw) is what keeps p99 bounded.
		brownLatency = 100 * time.Millisecond
		brownProb    = 0.12
		hedgeDelay   = 10 * time.Millisecond
	)
	if seed == 0 {
		seed = 1337
	}

	// --- Fleet: three nodes on chaos listeners. ---
	ids := []string{"a", "b", "c"}
	listeners := make([]*chaos.Listener, nNodes)
	nodes := make([]cluster.Node, nNodes)
	for i := range listeners {
		raw, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		listeners[i] = chaos.NewListener(raw)
		nodes[i] = cluster.Node{ID: ids[i], Addr: raw.Addr().String()}
	}
	initial, err := cluster.InitialMap(nodes, nShards)
	if err != nil {
		return err
	}
	addrOf := map[string]string{}
	for _, n := range nodes {
		addrOf[n.ID] = n.Addr
	}
	type member struct {
		db  *adcache.DB
		srv *http.Server
	}
	members := make([]member, nNodes)
	for i, n := range nodes {
		db, err := adcache.Open(adcache.Options{CacheBytes: 32 << 20})
		if err != nil {
			return err
		}
		view, err := cluster.NewNodeView(n.ID, initial)
		if err != nil {
			return err
		}
		srv := &http.Server{Handler: server.New(db,
			server.WithCluster(view),
			server.WithInternalToken(benchToken),
			server.WithServiceTime(serviceTime))}
		go srv.Serve(listeners[i])
		members[i] = member{db: db, srv: srv}
	}
	defer func() {
		for _, m := range members {
			m.srv.Close()
			m.db.Close()
		}
	}()

	// --- Client behind the seeded fault table. ---
	table := chaos.NewTable(seed)
	seeds := make([]string, nNodes)
	for i, n := range nodes {
		seeds[i] = n.Addr
	}
	cl, err := client.New(seeds,
		client.WithHTTPClient(&http.Client{Transport: &chaos.Transport{Table: table, Source: "bench"}}),
		client.WithMaxRetries(500),
		client.WithRetryBackoff(2*time.Millisecond),
		client.WithBackoffCap(50*time.Millisecond),
		client.WithJitterSeed(seed),
		client.WithBreaker(5, 100*time.Millisecond),
		client.WithHedgedReads(hedgeDelay),
		client.WithRequestTimeout(2*time.Second),
	)
	if err != nil {
		return err
	}
	defer cl.Close()

	// --- Preload: the whole key pool, with parseable seq-0 values so the
	// readback check can order any stored value it meets. ---
	keys := make([][]byte, nKeys)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("user%08d", i))
	}
	// pad brings every value up to valueSize behind the parseable
	// "w<writer>-<seq>" header, so writes carry realistic payloads.
	pad := make([]byte, valueSize)
	for i := range pad {
		pad[i] = byte('a' + i%26)
	}
	mkVal := func(w int, seq int64) []byte {
		v := fmt.Sprintf("w%d-%d.", w, seq)
		if len(v) < valueSize {
			v += string(pad[:valueSize-len(v)])
		}
		return []byte(v)
	}
	for off := 0; off < nKeys; off += 256 {
		end := off + 256
		if end > nKeys {
			end = nKeys
		}
		ops := make([]client.Op, 0, end-off)
		for w, k := range keys[off:end] {
			ops = append(ops, client.Op{Kind: client.OpPut, Key: k, Value: mkVal((off+w)%workers, 0)})
		}
		if err := cl.Batch(ops); err != nil {
			return err
		}
	}

	// --- Manager online for the whole run: its probes and polls ride the
	// same faults (a killed node is skipped, not fatal). ---
	mgr, err := cluster.NewManager(initial, cluster.ManagerOptions{
		Interval:      500 * time.Millisecond,
		InternalToken: benchToken,
		Logf: func(f string, a ...any) {
			fmt.Fprintf(os.Stderr, "  "+f+"\n", a...)
		},
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go mgr.Run(ctx)

	// --- The scripted timeline. phaseIdx routes each op's sample to the
	// phase it STARTED in, so a kill-phase op completing after the restart
	// still charges the kill. ---
	phaseNames := []string{"healthy", "brownout-b", "kill-c", "restart-c", "drop-acks-a", "heal"}
	aggs := make([]*chaosPhaseAgg, len(phaseNames))
	for i := range aggs {
		aggs[i] = &chaosPhaseAgg{}
	}
	idxOf := map[string]int32{}
	for i, n := range phaseNames {
		idxOf[n] = int32(i)
	}
	var phaseIdx atomic.Int32
	phaseIdx.Store(-1)
	script := &chaos.Script{
		Logf: func(f string, a ...any) { fmt.Fprintf(os.Stderr, "  "+f+"\n", a...) },
		OnPhase: func(name string) {
			now := time.Now()
			if cur := phaseIdx.Load(); cur >= 0 {
				aggs[cur].end = now
			}
			i := idxOf[name]
			aggs[i].start = now
			phaseIdx.Store(i)
		},
		Steps: []chaos.Step{
			{Name: "healthy", Duration: 3 * time.Second},
			{Name: "brownout-b", Duration: 3 * time.Second, Enter: func() {
				table.Set(addrOf["b"], chaos.Rule{Latency: brownLatency, Jitter: 20 * time.Millisecond, SlowProb: brownProb})
			}},
			{Name: "kill-c", Duration: 2 * time.Second, Enter: func() {
				table.Heal()
				listeners[2].Kill()
			}},
			{Name: "restart-c", Duration: 2 * time.Second, Enter: func() {
				listeners[2].Restart()
			}},
			{Name: "drop-acks-a", Duration: 1500 * time.Millisecond, Enter: func() {
				table.Set(addrOf["a"], chaos.Rule{DropResponseProb: 0.4})
			}},
			{Name: "heal", Duration: time.Second, Enter: func() {
				table.Heal()
			}},
		},
	}

	// --- Workers: mixed read/write load. Write keys are partitioned per
	// worker with per-key monotonic seqs, so the ledger can tell a
	// committed-but-unacked newer value (fine) from a lost ack (loss). ---
	var (
		mu           sync.Mutex
		acked        = map[string]string{}
		wseq         = make([]atomic.Int64, workers)
		wg           sync.WaitGroup
		teardownErrs atomic.Int64
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			// This worker's write partition: every workers-th key.
			var mine [][]byte
			for i := w; i < nKeys; i += workers {
				mine = append(mine, keys[i])
			}
			for ctx.Err() == nil {
				i := phaseIdx.Load()
				if i < 0 {
					time.Sleep(time.Millisecond)
					continue
				}
				agg := aggs[i]
				t0 := time.Now()
				if rng.Float64() < readFrac {
					_, _, err := cl.GetCtx(ctx, keys[rng.Intn(nKeys)])
					agg.readH.ObserveSince(t0)
					if err != nil {
						if ctx.Err() != nil {
							teardownErrs.Add(1)
							return
						}
						agg.errs.Add(1)
					}
				} else {
					k := mine[rng.Intn(len(mine))]
					v := string(mkVal(w, wseq[w].Add(1)))
					err := cl.PutCtx(ctx, k, []byte(v))
					agg.writeH.ObserveSince(t0)
					if err != nil {
						if ctx.Err() != nil {
							teardownErrs.Add(1)
							return
						}
						agg.errs.Add(1)
						continue
					}
					mu.Lock()
					acked[string(k)] = v
					mu.Unlock()
				}
			}
		}(w)
	}

	fmt.Printf("chaos bench: %d nodes × %d slots, %d keys, %d workers, service %v, seed %d\n",
		nNodes, nShards, nKeys, workers, serviceTime, seed)
	script.Run(ctx)
	if cur := phaseIdx.Load(); cur >= 0 && aggs[cur].end.IsZero() {
		aggs[cur].end = time.Now()
	}
	cancel()
	wg.Wait()

	// --- Per-phase results. ---
	var (
		phases             []chaosPhaseOut
		totalOps, totalErr int64
	)
	for i, name := range phaseNames {
		a := aggs[i]
		r, wr := a.readH.Snapshot(), a.writeH.Snapshot()
		secs := a.end.Sub(a.start).Seconds()
		p := chaosPhaseOut{
			Name:       name,
			Seconds:    secs,
			Ops:        r.Count + wr.Count,
			ReadP50Ms:  r.Quantile(0.50) / 1e6,
			ReadP99Ms:  r.Quantile(0.99) / 1e6,
			WriteP99Ms: wr.Quantile(0.99) / 1e6,
			Errors:     a.errs.Load(),
		}
		if secs > 0 {
			p.QPS = float64(p.Ops) / secs
		}
		phases = append(phases, p)
		totalOps += p.Ops
		totalErr += p.Errors
		fmt.Printf("  %-12s %5.1fs ops=%-6d qps=%-6.0f read p50=%6.2fms p99=%7.2fms write p99=%7.2fms errors=%d\n",
			p.Name, p.Seconds, p.Ops, p.QPS, p.ReadP50Ms, p.ReadP99Ms, p.WriteP99Ms, p.Errors)
	}

	// --- Readback: every acked write survives, at least as new. ---
	mu.Lock()
	ledger := make(map[string]string, len(acked))
	for k, v := range acked {
		ledger[k] = v
	}
	mu.Unlock()
	var lost int64
	for k, v := range ledger {
		got, ok, err := cl.Get([]byte(k))
		if err != nil || !ok {
			lost++
			continue
		}
		var gw, gn, aw, an int64
		if _, err := fmt.Sscanf(string(got), "w%d-%d", &gw, &gn); err != nil {
			lost++
			continue
		}
		fmt.Sscanf(v, "w%d-%d", &aw, &an)
		// Same key ⇒ same writer ⇒ seqs are comparable; a newer stored seq
		// is a committed-but-unacked write, not loss.
		if gw != aw || gn < an {
			lost++
		}
	}

	st := cl.Stats()
	breakerC := cl.BreakerState(addrOf["c"])
	healthyP99 := phases[0].ReadP99Ms
	brownP99 := phases[1].ReadP99Ms
	ratio := 0.0
	if healthyP99 > 0 {
		ratio = brownP99 / healthyP99
	}
	errRate := 0.0
	if totalOps > 0 {
		errRate = float64(totalErr) / float64(totalOps)
	}
	gates := chaosGates{
		ZeroAckedWriteLoss: lost == 0 && len(ledger) > 0,
		ErrorRateLE1Pct:    errRate <= 0.01,
		BrownoutP99LE3x:    healthyP99 > 0 && brownP99 <= 3*healthyP99,
		BreakerReclosed:    st.BreakerOpens >= 1 && st.BreakerCloses >= 1 && breakerC == "closed",
	}
	fmt.Printf("  acked=%d lost=%d errors=%d/%d (%.3f%%) brownout tail %.2fms vs healthy %.2fms (%.2fx)\n",
		len(ledger), lost, totalErr, totalOps, 100*errRate, brownP99, healthyP99, ratio)
	fmt.Printf("  retryable=%d breakerOpens=%d breakerCloses=%d breaker(c)=%s hedges=%d hedgeWins=%d\n",
		st.RetryableErrors, st.BreakerOpens, st.BreakerCloses, breakerC, st.HedgedReads, st.HedgeWins)
	fmt.Printf("  gates: zero-acked-loss=%v error-rate<=1%%=%v brownout-p99<=3x=%v breaker-reclosed=%v\n",
		gates.ZeroAckedWriteLoss, gates.ErrorRateLE1Pct, gates.BrownoutP99LE3x, gates.BreakerReclosed)

	if asJSON {
		out := chaosBenchOut{
			Seed: seed, Nodes: nNodes, Shards: nShards, Workers: workers, Keys: nKeys,
			ReadFraction: readFrac, ServiceTimeMs: serviceTime.Seconds() * 1000,
			Phases:            phases,
			HealthyReadP99Ms:  healthyP99,
			BrownoutReadP99Ms: brownP99,
			BrownoutTailRatio: ratio,
			AckedWrites:       int64(len(ledger)),
			LostAckedWrites:   lost,
			TotalOps:          totalOps,
			Errors:            totalErr,
			RetryableErrors:   st.RetryableErrors,
			BreakerOpens:      st.BreakerOpens,
			BreakerCloses:     st.BreakerCloses,
			BreakerFinalState: breakerC,
			HedgedReads:       st.HedgedReads,
			HedgeWins:         st.HedgeWins,
			Gates:             gates,
		}
		b, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return err
		}
		b = append(b, '\n')
		if err := os.WriteFile(path, b, 0o644); err != nil {
			return err
		}
		fmt.Printf("  wrote %s\n", path)
	}

	// Hard gates: a failed gate fails the bench (non-zero exit).
	if !gates.ZeroAckedWriteLoss {
		return fmt.Errorf("chaos bench: %d of %d acked writes lost", lost, len(ledger))
	}
	if !gates.ErrorRateLE1Pct {
		return fmt.Errorf("chaos bench: error rate %.3f%% exceeds 1%%", 100*errRate)
	}
	if !gates.BrownoutP99LE3x {
		return fmt.Errorf("chaos bench: brownout read p99 %.2fms > 3× healthy %.2fms", brownP99, healthyP99)
	}
	if !gates.BreakerReclosed {
		return fmt.Errorf("chaos bench: breaker lifecycle not observed (opens=%d closes=%d state=%s)",
			st.BreakerOpens, st.BreakerCloses, breakerC)
	}
	return nil
}
