package core

import (
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
			if a.inline.Load() {
				return // Bind moved tuning onto the op stream
			}
			a.tuneMu.Lock()
			a.tuneOnce()
			a.tuneMu.Unlock()
		}
	}
}

// tuneOnce closes one window. Callers hold tuneMu.
func (a *AdCache) tuneOnce() {
	w := a.collector.EndWindow()
	if w.Ops() == 0 {
		return
	}
	// A read-free window has nothing to learn from: the hit-rate estimate
	// is 0 by construction (no lookups to hit), so training on it would
	// only teach the agent that a write burst is a bad state. The window
	// is counted, journalled untrained, and the block-cache baseline
	// advances; the agent, the parameters and the smoothed reward stay
	// where they are.
	if w.Points+w.Scans == 0 {
		a.lastBlockStats = a.block.Stats()
		a.mu.Lock()
		rec := a.journal.last()
		rec.Window, rec.Trained = w, false
		a.journal.add(rec)
		a.mu.Unlock()
		return
	}
	shape, cacheShare := a.shape()
	hEst := shape.HitRateEstimate(w)

	// Reward smoothing (§3.5): h ← α·h + (1−α)·h_est. The relative change
	// Δh/h drives the adaptive learning rate exactly as published; the
	// smoothed level itself is the critic's return signal (see the
	// deviation note on rl.Agent.Update).
	a.mu.Lock()
	var lrDelta float64
	if !a.haveInit {
		a.smoothed = hEst
		a.haveInit = true
	} else {
		next := a.cfg.Alpha*a.smoothed + (1-a.cfg.Alpha)*hEst
		if next > 1e-9 {
			lrDelta = (next - a.smoothed) / next
		}
		a.smoothed = next
	}
	smoothed := a.smoothed
	a.mu.Unlock()

	state := a.buildState(w, shape, hEst)
	point, short, long, write := windowMix(w)
	priorAct := Prior(point, short, long, write, cacheShare)
	prior, params := a.decodeAction(priorAct), a.CurrentParams()
	chosen := params // a pinned controller holds its parameters
	if !a.pinned {
		a.agent.Update(smoothed, lrDelta, state)
		chosen = a.decodeAction(a.agent.Act(state, priorAct))
		params = a.applyParams(chosen)
	}

	// Journal the window. The agent is owned by this goroutine, so its
	// accessors are read here and copied under the lock — scrapes read the
	// record, never the agent.
	actorLoss, criticLoss := a.agent.Losses()
	a.mu.Lock()
	a.journal.add(TuningState{
		AgentSteps: a.agent.Steps(),
		HEstimate:  hEst,
		HSmoothed:  smoothed,
		Reward:     lrDelta,
		ActorLR:    a.agent.ActorLR(),
		ActorLoss:  actorLoss,
		CriticLoss: criticLoss,
		Params:     params,
		Prior:      prior,
		Residual:   chosen.sub(prior),
		Window:     w,
		Trained:    !a.pinned,
	})
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
	if a.cfg.DisablePartitioning {
		p.RangeRatio = fixedRangeRatio
	}
	if a.cfg.DisableAdmission {
		p.PointThreshold = 0
		p.ScanA = maxScanLen
		p.ScanB = 1
	}
	return p
}

// applyParams publishes params and moves the budget boundary, returning
// what it actually applied. Small ratio jitters (exploration noise) are not
// applied: every downward cache resize evicts entries, and §3.5 warns that
// frequent boundary adjustments degrade performance — so the range ratio
// carries a ±0.02 hysteresis deadband, and the POST-hysteresis value is
// what gets stored (dashboards and the journal never see a pre-clamp
// target). Admission parameters always apply.
func (a *AdCache) applyParams(p Params) Params {
	prev := a.CurrentParams()
	if !a.cfg.DisableHysteresis {
		if diff := p.RangeRatio - prev.RangeRatio; diff < 0.02 && diff > -0.02 {
			p.RangeRatio = prev.RangeRatio
		}
	}
	a.setParams(p)
	return p
}

// setParams publishes p and moves the budget boundary to it. A cache whose
// budget stays the same is not resized: a resize locks every shard, and
// hysteresis keeps the split most windows.
func (a *AdCache) setParams(p Params) {
	a.params.Store(p)
	rangeBytes := int64(float64(a.cfg.Capacity) * p.RangeRatio)
	if blockBytes := a.cfg.Capacity - rangeBytes; blockBytes != a.blockBytes {
		a.block.Resize(blockBytes)
		a.blockBytes = blockBytes
		a.resizes++
	}
	if rangeBytes != a.rangeBytes {
		a.rng.Resize(rangeBytes)
		a.rangeBytes = rangeBytes
		a.resizes++
	}
}

// buildState assembles the agent's observation: workload composition, scan
// shape, cache effectiveness and occupancy, tree state — the features §3.5
// lists.
func (a *AdCache) buildState(w stats.Window, shape stats.Shape, hEst float64) []float32 {
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
