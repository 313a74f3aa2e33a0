package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"adcache/internal/api"
	"adcache/internal/api/wire"
	"adcache/internal/metrics"
)

// ManagerOptions tunes the shard manager's control loop.
type ManagerOptions struct {
	// Interval is the poll period (default 2s).
	Interval time.Duration
	// ImbalanceRatio triggers a move when the busiest node's window load
	// exceeds this multiple of the least busy node's (default 1.5).
	ImbalanceRatio float64
	// OpsImbalanceRatio is the op-count imbalance that must corroborate
	// the latency imbalance before a move (default 1.3). Sojourn-time
	// sums are queue-amplified — near saturation a small load asymmetry
	// reads as a large busy asymmetry, and a draining backlog keeps a
	// node reading hot after the cause is gone — while raw op counts are
	// low-variance. Requiring both keeps queue noise from causing churn.
	OpsImbalanceRatio float64
	// MinWindowOps is the fleet-wide op count a poll window must contain
	// before the manager acts — avoids rebalancing on noise (default 200).
	MinWindowOps int64
	// Cooldown is the minimum gap between moves (default 2×Interval), so
	// the next window reflects the previous move before another is made.
	Cooldown time.Duration
	// HTTPTimeout bounds each control RPC (default 10s).
	HTTPTimeout time.Duration
	// ProbeTimeout bounds a node health probe (default 2s — probes must
	// answer fast or the node counts as dead for this cycle).
	ProbeTimeout time.Duration
	// CopyDeadline bounds a move's whole copy phase (export stream, chunk
	// loads, destination publish; default 60s). A copy stalled past it — a
	// browning-out source trickling data, a destination hanging — aborts
	// the move and reverts, instead of fencing the slot indefinitely.
	CopyDeadline time.Duration
	// MigrateChunk is the number of entries per bulk-load request during a
	// shard copy (default 1024) — and the most the manager ever holds: the
	// export is forwarded chunk by chunk as it streams in.
	MigrateChunk int
	// InternalToken is the shared secret sent in api.HeaderInternal on
	// migration requests; it must match the token every node was started
	// with (adcached -cluster-token). Without it nodes reject the
	// manager's migration traffic and moves fail.
	InternalToken string
	// Logf, when set, receives one line per decision and move.
	Logf func(format string, args ...any)
}

func (o *ManagerOptions) defaults() {
	if o.Interval <= 0 {
		o.Interval = 2 * time.Second
	}
	if o.ImbalanceRatio <= 1 {
		o.ImbalanceRatio = 1.5
	}
	if o.OpsImbalanceRatio <= 1 {
		o.OpsImbalanceRatio = 1.3
	}
	if o.MinWindowOps <= 0 {
		o.MinWindowOps = 200
	}
	if o.Cooldown <= 0 {
		o.Cooldown = 2 * o.Interval
	}
	if o.HTTPTimeout <= 0 {
		o.HTTPTimeout = 10 * time.Second
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = 2 * time.Second
	}
	if o.CopyDeadline <= 0 {
		o.CopyDeadline = 60 * time.Second
	}
	if o.MigrateChunk <= 0 {
		o.MigrateChunk = 1024
	}
}

// Manager is the latency-driven rebalancer: it polls every node's
// per-shard read/write histograms, diffs successive polls into load
// windows, and when one node is carrying disproportionate load it moves a
// hash slot to the least-loaded node by fencing the old owner on a new
// epoch, copying the slot's data, and publishing the map fleet-wide.
//
// The manager is the cluster's only map publisher; nodes accept any map
// with a higher epoch, so a restarted manager first adopts the highest
// epoch any node holds (SyncMap) before publishing again.
type Manager struct {
	opts  ManagerOptions
	httpc *http.Client

	mu       sync.Mutex
	cur      *ShardMap
	prev     map[string][]api.ShardStat // node ID → last cumulative poll
	lastMove time.Time
	moves    int
	reverts  int
}

// NewManager returns a manager starting from m (typically InitialMap).
func NewManager(m *ShardMap, opts ManagerOptions) (*Manager, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	opts.defaults()
	return &Manager{
		opts:  opts,
		httpc: &http.Client{Timeout: opts.HTTPTimeout},
		cur:   m,
		prev:  make(map[string][]api.ShardStat),
	}, nil
}

// Current returns the manager's current map (MapSource).
func (mg *Manager) Current() *ShardMap {
	mg.mu.Lock()
	defer mg.mu.Unlock()
	return mg.cur
}

// Moves returns the number of shard moves executed so far.
func (mg *Manager) Moves() int {
	mg.mu.Lock()
	defer mg.mu.Unlock()
	return mg.moves
}

// Reverts returns the number of moves that failed after their fence and
// were rolled forward to a revert map.
func (mg *Manager) Reverts() int {
	mg.mu.Lock()
	defer mg.mu.Unlock()
	return mg.reverts
}

func (mg *Manager) logf(format string, args ...any) {
	if mg.opts.Logf != nil {
		mg.opts.Logf(format, args...)
	}
}

// Run drives the control loop until ctx is cancelled: sync once, then
// poll/decide/move every Interval. Poll errors are logged and skipped —
// an unreachable node pauses rebalancing rather than crashing the loop.
func (mg *Manager) Run(ctx context.Context) {
	if err := mg.SyncMap(ctx); err != nil {
		mg.logf("cluster-manager: initial sync: %v", err)
	}
	t := time.NewTicker(mg.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if moved, err := mg.RebalanceOnce(ctx); err != nil {
				mg.logf("cluster-manager: rebalance: %v", err)
			} else if moved {
				mg.logf("cluster-manager: epoch now %d", mg.Current().Epoch)
			}
		}
	}
}

// SyncMap fetches /v1/shardmap from every node and adopts the highest
// epoch seen — the recovery path after a manager restart.
func (mg *Manager) SyncMap(ctx context.Context) error {
	mg.mu.Lock()
	nodes := mg.cur.Nodes
	mg.mu.Unlock()
	var firstErr error
	for _, n := range nodes {
		var m ShardMap
		if err := mg.getJSON(ctx, n.Addr, "/v1/shardmap", &m); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("node %s: %w", n.ID, err)
			}
			continue
		}
		mg.mu.Lock()
		if m.Epoch > mg.cur.Epoch && m.Shards == mg.cur.Shards {
			mg.cur = &m
		}
		mg.mu.Unlock()
	}
	return firstErr
}

// nodeWindow is one node's load over the last poll window.
type nodeWindow struct {
	node  Node
	busy  int64           // Σ read+write latency nanos over owned shards
	ops   int64           // Σ read+write ops
	shard map[int]int64   // per-slot busy nanos
	p99r  map[int]float64 // per-slot window read p99
}

// subSnap returns cur − prev bucket-wise: the observations recorded in
// the window between two cumulative polls.
func subSnap(cur, prev metrics.HistogramSnapshot) metrics.HistogramSnapshot {
	out := cur
	out.Count -= prev.Count
	out.Sum -= prev.Sum
	for i := range out.Buckets {
		out.Buckets[i] -= prev.Buckets[i]
	}
	if out.Count < 0 { // node restarted; treat as fresh
		return cur
	}
	return out
}

// RebalanceOnce performs one poll-decide-move cycle. It returns whether a
// shard was moved. The first poll after start (or after a node restart)
// only establishes baselines.
//
// An unreachable node does not halt the cycle: it is dropped from this
// window (its baseline is discarded so a restarted node re-baselines
// instead of diffing against pre-crash counters), and no move can select
// it as source or destination — a dead node pauses migrations touching
// it while the rest of the fleet keeps rebalancing.
func (mg *Manager) RebalanceOnce(ctx context.Context) (bool, error) {
	mg.mu.Lock()
	cur := mg.cur
	lastMove := mg.lastMove
	mg.mu.Unlock()

	windows := make([]*nodeWindow, 0, len(cur.Nodes))
	var fleetOps int64
	baseline := false
	for _, n := range cur.Nodes {
		var st api.ShardStats
		if err := mg.getJSON(ctx, n.Addr, "/v1/shardstats", &st); err != nil {
			mg.logf("cluster-manager: poll %s: %v (skipping this window)", n.ID, err)
			mg.mu.Lock()
			delete(mg.prev, n.ID)
			mg.mu.Unlock()
			continue
		}
		w := &nodeWindow{node: n, shard: map[int]int64{}, p99r: map[int]float64{}}
		mg.mu.Lock()
		prev, havePrev := mg.prev[n.ID]
		mg.prev[n.ID] = st.Shards
		mg.mu.Unlock()
		if !havePrev {
			baseline = true
			continue
		}
		prevBy := make(map[int]api.ShardStat, len(prev))
		for _, s := range prev {
			prevBy[s.Shard] = s
		}
		for _, s := range st.Shards {
			p := prevBy[s.Shard]
			r := subSnap(s.Reads, p.Reads)
			wr := subSnap(s.Writes, p.Writes)
			busy := r.Sum + wr.Sum
			w.shard[s.Shard] = busy
			w.p99r[s.Shard] = r.Quantile(0.99)
			w.busy += busy
			w.ops += r.Count + wr.Count
		}
		fleetOps += w.ops
		windows = append(windows, w)
	}
	if baseline || len(windows) < 2 {
		return false, nil
	}
	if fleetOps < mg.opts.MinWindowOps {
		return false, nil
	}
	if !lastMove.IsZero() && time.Since(lastMove) < mg.opts.Cooldown {
		return false, nil
	}

	sort.Slice(windows, func(i, j int) bool { return windows[i].busy > windows[j].busy })
	hot, cold := windows[0], windows[len(windows)-1]
	if hot.busy == 0 {
		return false, nil
	}
	if cold.busy > 0 && float64(hot.busy) < mg.opts.ImbalanceRatio*float64(cold.busy) {
		return false, nil
	}
	if cold.ops > 0 && float64(hot.ops) < mg.opts.OpsImbalanceRatio*float64(cold.ops) {
		return false, nil
	}

	// Pick the slot on the hot node whose move best narrows the gap:
	// minimize |(hot−s) − (cold+s)| over owned, non-idle slots.
	gap := hot.busy - cold.busy
	best, bestScore := -1, int64(1)<<62
	for _, s := range cur.OwnedBy(hot.node.ID) {
		b := hot.shard[s]
		if b <= 0 {
			continue
		}
		score := gap - 2*b
		if score < 0 {
			score = -score
		}
		if score < bestScore {
			best, bestScore = s, score
		}
	}
	if best < 0 || bestScore >= gap {
		return false, nil // no move improves the imbalance
	}
	mg.logf("cluster-manager: hot node %s (busy %dms, shard %d p99 %.1fms) → moving shard %d to %s",
		hot.node.ID, hot.busy/1e6, best, hot.p99r[best]/1e6, best, cold.node.ID)
	if err := mg.MoveShard(ctx, best, cold.node.ID); err != nil {
		return false, err
	}
	return true, nil
}

// probeReady reports whether the node at addr answers /v1/health with
// 200 within ProbeTimeout — alive, not draining, not degraded.
func (mg *Manager) probeReady(ctx context.Context, addr string) error {
	pctx, cancel := context.WithTimeout(ctx, mg.opts.ProbeTimeout)
	defer cancel()
	return mg.call(pctx, http.MethodGet, addr, "/v1/health", "", nil)
}

// MoveShard migrates one slot to node to and publishes the new epoch
// fleet-wide. The ordering is the consistency contract:
//
//  1. fence — the old owner accepts the new map first, so it starts
//     rejecting the slot's keys with WRONG_SHARD before any data moves;
//  2. copy — the new owner's copy of the slot is purged (a node loads a
//     slot it does not own starting from empty, so leftovers of an earlier
//     reverted move cannot resurrect keys deleted since), then the slot's
//     entries stream from the old owner into the new owner over the
//     binary migration endpoints, one MigrateChunk at a time;
//  3. publish — every other node (the new owner first) accepts the map;
//  4. purge — the old owner deletes its now-foreign copy of the slot.
//
// The fence is also a drain: the old owner installs the map under its
// flight write lock, so every mutation that passed an ownership check
// under the old epoch has committed before the fence's 204 — and is
// therefore in the copy. A write issued after the fence answers
// WRONG_SHARD until the new owner holds both the map and the data, so
// acked writes survive the move by construction. If the manager dies
// between fence and publish the slot is unavailable (clients retry
// WRONG_SHARD) but no data is lost — the purge runs strictly last.
//
// Posting the fence consumes the new epoch: the fenced node holds that
// map, and nodes reject a same-epoch map with different contents. A
// failure after the fence therefore rolls forward to a revert map at the
// following epoch restoring the old owner (which still has every entry),
// rather than leaving the slot fenced or re-minting the epoch.
func (mg *Manager) MoveShard(ctx context.Context, shard int, to string) error {
	mg.mu.Lock()
	cur := mg.cur
	mg.mu.Unlock()
	if shard < 0 || shard >= cur.Shards {
		return fmt.Errorf("cluster: shard %d out of range", shard)
	}
	fromID := cur.Owner[shard]
	if fromID == to {
		return nil
	}
	from, _ := cur.NodeByID(fromID)
	dest, ok := cur.NodeByID(to)
	if !ok {
		return fmt.Errorf("cluster: unknown destination node %q", to)
	}
	next, err := cur.WithMove(shard, to)
	if err != nil {
		return err
	}

	// 0. Probe both ends before fencing anything: a dead or draining
	// destination would doom the copy *after* the fence made the slot
	// unavailable, forcing a revert epoch. Probing first turns that into
	// a free abort — nothing has changed fleet-wide yet.
	if err := mg.probeReady(ctx, dest.Addr); err != nil {
		return fmt.Errorf("destination %s not ready, move aborted: %w", dest.ID, err)
	}
	if err := mg.probeReady(ctx, from.Addr); err != nil {
		return fmt.Errorf("source %s not ready, move aborted: %w", from.ID, err)
	}

	// 1. Fence the old owner. Until this succeeds nothing has changed
	// fleet-wide, so a failure simply aborts the move.
	if err := mg.postMap(ctx, from.Addr, next); err != nil {
		return fmt.Errorf("fence %s: %w", from.ID, err)
	}
	// The fence consumed next.Epoch — any failure below must advance past
	// it via a revert map, never reuse it.
	fail := func(cause error) error {
		mg.revertMove(ctx, next, shard, from.ID, dest)
		return cause
	}
	// 2. Copy the slot, the whole phase (purge of the destination, export
	// stream, chunk loads, destination publish) bounded by CopyDeadline: a
	// copy that stalls past it — the source browning out mid-stream, the
	// destination hanging on a load — aborts and reverts instead of
	// holding the slot fenced indefinitely.
	cctx, cancelCopy := context.WithTimeout(ctx, mg.opts.CopyDeadline)
	defer cancelCopy()
	if err := mg.purgeShard(cctx, dest.Addr, shard); err != nil {
		return fail(fmt.Errorf("clear shard %d on %s: %w", shard, dest.ID, err))
	}
	entries, err := mg.copyShard(cctx, from, dest, shard)
	if err != nil {
		return fail(err)
	}
	// 3. Publish fleet-wide, destination first so retried client requests
	// land on a node that already owns the slot.
	if err := mg.postMap(cctx, dest.Addr, next); err != nil {
		return fail(fmt.Errorf("publish to %s: %w", dest.ID, err))
	}
	for _, n := range next.Nodes {
		if n.ID == from.ID || n.ID == dest.ID {
			continue
		}
		if err := mg.postMap(ctx, n.Addr, next); err != nil {
			mg.logf("cluster-manager: publish to %s: %v (will converge via headers)", n.ID, err)
		}
	}
	// 4. Purge the old owner's copy. Best-effort: servers filter scans by
	// ownership, so a leftover copy is invisible, just disk weight.
	if err := mg.purgeShard(ctx, from.Addr, shard); err != nil {
		mg.logf("cluster-manager: purge shard %d on %s: %v", shard, from.ID, err)
	}

	mg.mu.Lock()
	mg.cur = next
	mg.lastMove = time.Now()
	mg.moves++
	mg.mu.Unlock()
	mg.logf("cluster-manager: shard %d moved %s → %s (%d entries, epoch %d)",
		shard, from.ID, dest.ID, entries, next.Epoch)
	return nil
}

// revertMove recovers from a move that failed after its fence was
// posted: it publishes a map at the epoch after failed (so the consumed
// epoch is never re-minted with different contents) that restores shard
// to owner fromID — who still holds every entry, because the purge runs
// strictly last. Publishing is best-effort per node; stragglers converge
// on the next publish or via response headers. The manager's own map
// always advances, so its next move uses a fresh epoch. Once dest is back
// to not owning the slot, its partial copy is purged, best-effort (the
// next move into it purges again before loading).
//
// A reverted move ticks the cooldown clock exactly once, here — the
// success path ticks it in MoveShard, never both. Without this, a
// persistently failing move would retry every poll interval, burning an
// epoch (fence + revert) each time; with it, failed moves pace
// themselves exactly like successful ones.
func (mg *Manager) revertMove(ctx context.Context, failed *ShardMap, shard int, fromID string, dest Node) {
	revert, err := failed.WithMove(shard, fromID)
	if err != nil {
		mg.logf("cluster-manager: building revert map: %v", err)
		return
	}
	for _, n := range revert.Nodes {
		if err := mg.postMap(ctx, n.Addr, revert); err != nil {
			mg.logf("cluster-manager: revert publish to %s: %v", n.ID, err)
		}
	}
	if err := mg.purgeShard(ctx, dest.Addr, shard); err != nil {
		mg.logf("cluster-manager: purge partial copy of shard %d on %s: %v", shard, dest.ID, err)
	}
	mg.mu.Lock()
	mg.cur = revert
	mg.lastMove = time.Now()
	mg.reverts++
	mg.mu.Unlock()
	mg.logf("cluster-manager: move of shard %d aborted; reverted to %s at epoch %d",
		shard, fromID, revert.Epoch)
}

// copyShard streams shard from its old owner into dest: the export is
// decoded as it arrives and forwarded as one binary batch per MigrateChunk
// entries, so the manager holds one chunk however large the slot is. The
// export request is bounded by ctx (the copy deadline) rather than
// HTTPTimeout, which it can outlive while chunks are loading. An export
// that ends before its end frame — the source hit an engine error or the
// connection dropped mid-stream — is an error like any other: the caller
// reverts, and nothing loaded so far is ever published. It returns the
// number of entries copied.
func (mg *Manager) copyShard(ctx context.Context, from, dest Node, shard int) (int, error) {
	path := fmt.Sprintf("/v1/migrate?shard=%d", shard)
	stream := http.Client{Transport: mg.httpc.Transport}
	resp, err := mg.do(ctx, &stream, http.MethodGet, from.Addr, path, "", nil)
	if err != nil {
		return 0, fmt.Errorf("fetch shard %d from %s: %w", shard, from.ID, err)
	}
	defer resp.Body.Close()
	var dec wire.StreamDecoder
	dec.Reset(resp.Body)
	var ops []byte // the chunk being filled: n puts in batch framing
	n, total := 0, 0
	load := func() error {
		// The framing puts the op count first, known only now.
		body := io.MultiReader(bytes.NewReader(wire.AppendBatchHeader(nil, n)), bytes.NewReader(ops))
		if err := mg.call(ctx, http.MethodPost, dest.Addr, path, wire.ContentType, body); err != nil {
			return fmt.Errorf("load shard %d into %s: %w", shard, dest.ID, err)
		}
		total, ops, n = total+n, ops[:0], 0
		return nil
	}
	for {
		key, value, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return total, fmt.Errorf("fetch shard %d from %s: %w", shard, from.ID, err)
		}
		ops = wire.AppendPut(ops, key, value)
		if n++; n == mg.opts.MigrateChunk {
			if err := load(); err != nil {
				return total, err
			}
		}
	}
	if n > 0 {
		if err := load(); err != nil {
			return total, err
		}
	}
	return total, nil
}

func (mg *Manager) getJSON(ctx context.Context, addr, path string, out any) error {
	resp, err := mg.do(ctx, mg.httpc, http.MethodGet, addr, path, "", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

func (mg *Manager) postMap(ctx context.Context, addr string, m *ShardMap) error {
	body, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return mg.call(ctx, http.MethodPost, addr, "/v1/shardmap", "application/json", bytes.NewReader(body))
}

func (mg *Manager) purgeShard(ctx context.Context, addr string, shard int) error {
	return mg.call(ctx, http.MethodDelete, addr, fmt.Sprintf("/v1/migrate?shard=%d", shard), "", nil)
}

// call is do for an answer whose body is not read.
func (mg *Manager) call(ctx context.Context, method, addr, path, contentType string, body io.Reader) error {
	resp, err := mg.do(ctx, mg.httpc, method, addr, path, contentType, body)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 512))
	return resp.Body.Close()
}

// do issues one control RPC carrying the internal token and returns the
// response of a 2xx answer, its body still open; any other status is an
// error naming the call and the node's answer.
func (mg *Manager) do(ctx context.Context, c *http.Client, method, addr, path, contentType string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, "http://"+addr+path, body)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	req.Header.Set(api.HeaderInternal, mg.opts.InternalToken)
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(b))
	}
	return resp, nil
}
