package core

import (
	"adcache/internal/lsm"
	"adcache/internal/rl"
	"adcache/internal/stats"
)

// tuneLoop is the Background Tuning Module (§3.1): it wakes at window
// boundaries, computes the smoothed I/O-estimate reward, updates the agent
// for its previous decision, asks for the next action, and applies it. The
// serving path never blocks on this goroutine — parameter updates land one
// window behind the statistics that produced them (§4.2).
func (a *AdCache) tuneLoop() {
	for {
		select {
		case <-a.done:
			return
		case <-a.tuneCh:
			a.tuneMu.Lock()
			a.tuneOnce()
			a.tuneMu.Unlock()
		}
	}
}

// writeDeltas are the per-window changes of the engine's cumulative
// write-side counters, computed by tuneOnce from successive WriteSideInfo
// snapshots.
type writeDeltas struct {
	flushes   int64
	stalls    int64
	userBytes int64
	outBytes  int64 // flush + compaction output bytes
}

// tuneOnce closes one window. Callers hold tuneMu.
func (a *AdCache) tuneOnce() {
	w := a.collector.EndWindow()
	if w.Ops() == 0 {
		return
	}
	// Write-side deltas for this window (zero when no DB is bound).
	info := a.dbWriteInfo()
	wd := writeDeltas{
		flushes:   info.Flushes - a.lastWriteInfo.Flushes,
		stalls:    (info.StallSlowdowns + info.StallStops) - (a.lastWriteInfo.StallSlowdowns + a.lastWriteInfo.StallStops),
		userBytes: info.UserBytes - a.lastWriteInfo.UserBytes,
		outBytes: (info.FlushedBytes + info.CompactionOutBytes) -
			(a.lastWriteInfo.FlushedBytes + a.lastWriteInfo.CompactionOutBytes),
	}
	a.lastWriteInfo = info

	// A read-free window has nothing to learn from: the hit-rate estimate
	// is 0 by construction (no lookups to hit), so training on it would
	// only teach the agent that a write burst is a bad state. The window
	// is counted and its baselines advance; the agent, the parameters and
	// the smoothed reward stay where they are. Unified arbitration prices
	// write efficiency too, so there every window trains.
	if w.Points+w.Scans == 0 && !a.cfg.MemtableArbitration {
		a.lastBlockStats = a.block.Stats()
		windows := a.windowsClosed.Add(1)
		a.mu.Lock()
		a.tuning.Windows = windows
		a.mu.Unlock()
		return
	}
	shape, cacheShare := a.shape()
	hEst := shape.HitRateEstimate(w)

	// Reward. Cache-only arbitration optimises the estimated hit rate
	// alone. Unified memory arbitration mixes in write efficiency — user
	// bytes per SSTable byte written this window, i.e. the reciprocal of
	// windowed write amplification, in (0, 1] — weighted by the window's
	// write share, so the composite degenerates to hEst exactly on
	// read-only windows and the cache-only behaviour is unchanged.
	reward := hEst
	var writeEff float64
	if a.cfg.MemtableArbitration {
		ops := float64(w.Ops())
		writeShare := float64(w.Writes) / ops
		writeEff = 1.0
		if wd.userBytes > 0 && wd.outBytes > wd.userBytes {
			writeEff = float64(wd.userBytes) / float64(wd.outBytes)
		}
		reward = (1-writeShare)*hEst + writeShare*writeEff
	}

	// Reward smoothing (§3.5): h ← α·h + (1−α)·h_est. The relative change
	// Δh/h drives the adaptive learning rate exactly as published; the
	// smoothed level itself is the critic's return signal (see the
	// deviation note on rl.Agent.Update).
	a.mu.Lock()
	var lrDelta float64
	if !a.haveInit {
		a.smoothed = reward
		a.haveInit = true
	} else {
		next := a.cfg.Alpha*a.smoothed + (1-a.cfg.Alpha)*reward
		if next > 1e-9 {
			lrDelta = (next - a.smoothed) / next
		}
		a.smoothed = next
	}
	smoothed := a.smoothed
	a.mu.Unlock()

	state := a.buildState(w, shape, hEst, info, wd)
	point, short, long, write := windowMix(w)
	priorAct := Prior(point, short, long, write, cacheShare)
	prior, params := a.decodeAction(priorAct), a.CurrentParams()
	chosen := params // a pinned controller holds its parameters
	if !a.pinned {
		a.agent.Update(smoothed, lrDelta, state)
		chosen = a.decodeAction(a.agent.Act(state, priorAct))
		params = a.applyParams(chosen)
	}

	windows := a.windowsClosed.Add(1)

	// Publish the controller view for metrics scrapes. The agent is owned by
	// this goroutine, so its accessors are read here and copied under the
	// lock — the collector reads the copy, never the agent.
	actorLoss, criticLoss := a.agent.Losses()
	a.mu.Lock()
	a.tuning = TuningState{
		Windows:    windows,
		AgentSteps: a.agent.Steps(),
		HEstimate:  hEst,
		HSmoothed:  smoothed,
		WriteEff:   writeEff,
		Reward:     lrDelta,
		ActorLR:    a.agent.ActorLR(),
		ActorLoss:  actorLoss,
		CriticLoss: criticLoss,
		Params:     params,
		Prior:      prior,
		Residual:   chosen.sub(prior),
	}
	if a.cfg.RecordTrace {
		a.trace = append(a.trace, WindowTrace{
			Window:    w,
			HEstimate: hEst,
			HSmoothed: smoothed,
			Reward:    lrDelta,
			Params:    params,
			Prior:     prior,
			Residual:  chosen.sub(prior),
			ActorLR:   a.agent.ActorLR(),
		})
	}
	a.mu.Unlock()
}

// decodeAction maps the actor's [0,1] outputs onto concrete parameters.
func (a *AdCache) decodeAction(act rl.Action) Params {
	p := Params{
		RangeRatio:     act.RangeRatio,
		PointThreshold: act.PointThreshold * pointThresholdScale,
		ScanA:          int(act.ScanA*maxScanLen) + 1,
		ScanB:          act.ScanB,
	}
	if a.cfg.MemtableArbitration {
		// The [0,1] action maps onto a fixed band: the engine always
		// keeps a working write buffer and the caches are never starved.
		p.MemRatio = memRatioMin + act.MemRatio*(memRatioMax-memRatioMin)
	}
	if a.cfg.DisablePartitioning {
		p.RangeRatio = a.cfg.InitialRangeRatio
		if a.cfg.MemtableArbitration {
			p.MemRatio = a.cfg.initialMemRatio
		}
	}
	if a.cfg.DisableAdmission {
		p.PointThreshold = 0
		p.ScanA = maxScanLen
		p.ScanB = 1
	}
	return p
}

// applyParams publishes params and moves the budget boundaries, returning
// what it actually applied. Small ratio jitters (exploration noise) are not
// applied: every downward cache resize evicts entries, every memtable-share
// move forces or delays flushes, and §3.5 warns that frequent boundary
// adjustments degrade performance — so both budget ratios carry a ±0.02
// hysteresis deadband, and the POST-hysteresis values are what gets stored
// (dashboards and the trace never see a pre-clamp target). Admission
// parameters always apply.
func (a *AdCache) applyParams(p Params) Params {
	prev := a.CurrentParams()
	if !a.cfg.DisableHysteresis {
		if diff := p.RangeRatio - prev.RangeRatio; diff < 0.02 && diff > -0.02 {
			p.RangeRatio = prev.RangeRatio
		}
		if diff := p.MemRatio - prev.MemRatio; diff < 0.02 && diff > -0.02 {
			p.MemRatio = prev.MemRatio
		}
	}
	a.setParams(p)
	return p
}

// setParams publishes p and moves the budget boundaries to it. A cache
// whose budget stays the same is not resized: a resize locks every shard,
// and hysteresis keeps the split most windows.
func (a *AdCache) setParams(p Params) {
	a.params.Store(p)
	// Unified ledger: memtables take their share off the top, the caches
	// split the remainder at the range/block boundary. With arbitration off
	// MemRatio is always 0 and this is the original two-way split.
	memBytes := int64(float64(a.cfg.Capacity) * p.MemRatio)
	cacheBytes := a.cfg.Capacity - memBytes
	rangeBytes := int64(float64(cacheBytes) * p.RangeRatio)
	if blockBytes := cacheBytes - rangeBytes; blockBytes != a.blockBytes {
		a.block.Resize(blockBytes)
		a.blockBytes = blockBytes
		a.resizes++
	}
	if rangeBytes != a.rangeBytes {
		a.rng.Resize(rangeBytes)
		a.rangeBytes = rangeBytes
		a.resizes++
	}
	if a.cfg.MemtableArbitration {
		a.mu.Lock()
		db := a.db
		a.mu.Unlock()
		if db != nil {
			// Lock-free atomic store: safe even when this runs inside an
			// engine callback holding the DB's locks (SyncTuning). A shrink
			// takes effect at the engine's next memtable rotation.
			db.SetMemTableBudget(memBytes)
		}
	}
}

// buildState assembles the agent's observation: workload composition, scan
// shape, cache effectiveness and occupancy, tree state — the features §3.5
// lists — plus the write-side features of the unified memory arbiter.
func (a *AdCache) buildState(w stats.Window, shape stats.Shape, hEst float64, info lsm.WriteSideInfo, wd writeDeltas) []float32 {
	ops := float64(w.Ops())
	if ops == 0 {
		ops = 1
	}
	state := make([]float32, rl.StateDim)
	state[0] = float32(float64(w.Points) / ops)
	state[1] = float32(float64(w.Scans) / ops)
	state[2] = float32(float64(w.Writes) / ops)
	state[3] = float32(clamp01f(w.AvgScanLen() / maxScanLen))
	if w.Points > 0 {
		state[4] = float32(float64(w.RangeGetHits) / float64(w.Points))
	}
	if w.Scans > 0 {
		state[5] = float32(float64(w.RangeScanHits) / float64(w.Scans))
	}
	state[6] = float32(hEst)

	bs := a.block.Stats()
	dHits := bs.Hits - a.lastBlockStats.Hits
	dMisses := bs.Misses - a.lastBlockStats.Misses
	a.lastBlockStats = bs
	if total := dHits + dMisses; total > 0 {
		state[7] = float32(float64(dHits) / float64(total))
	}
	p := a.CurrentParams()
	state[8] = float32(p.RangeRatio)
	if rs := a.rng.Stats(); rs.Capacity > 0 {
		state[9] = float32(clamp01f(float64(rs.Used) / float64(rs.Capacity)))
	}
	state[10] = float32(clamp01f(float64(shape.Levels) / 7))
	state[11] = float32(clamp01f(shape.IOScan(w.AvgScanLen()) / 32))
	// Physical/logical byte ratio of the block cache: 1.0 when uncompressed
	// (or empty), below 1 when compressed images stretch the byte budget —
	// the agent sees how much decoded data its budget is actually buying.
	state[12] = 1
	if bs.LogicalUsed > 0 {
		state[12] = float32(clamp01f(float64(bs.Used) / float64(bs.LogicalUsed)))
	}

	// Write-side features (unified memory arbitration; all zero when no DB
	// is bound): the in-force memtable share, how full the active memtable
	// is against its target, immutable-queue pressure, this window's
	// flush + stall events, and this window's write amplification.
	state[13] = float32(p.MemRatio)
	if info.MemTarget > 0 {
		state[14] = float32(clamp01f(float64(info.MemBytes) / float64(info.MemTarget)))
	}
	if info.MaxImm > 0 {
		state[15] = float32(clamp01f(float64(info.ImmCount) / float64(info.MaxImm)))
	}
	state[16] = float32(clamp01f(float64(wd.flushes+wd.stalls) / 8))
	if wd.userBytes > 0 && wd.outBytes > 0 {
		wa := float64(wd.outBytes) / float64(wd.userBytes)
		state[17] = float32(clamp01f(wa / 8))
	}
	return state
}

func clamp01f(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
