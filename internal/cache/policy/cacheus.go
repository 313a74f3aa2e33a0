package policy

import (
	"math"
	"math/rand"
)

// Cacheus implements the policy of Rodriguez et al. (FAST'21): the LeCaR
// weighting framework with two stronger experts — a scan-resistant LRU
// (SR-LRU) and a churn-resistant LFU (CR-LFU) — and an adaptive learning
// rate driven by recent performance instead of LeCaR's fixed rate.
//
// The experts follow the published designs; partition adaptation inside
// SR-LRU uses ARC-style ±1 target adjustment on history hits, a documented
// simplification of the original's demotion bookkeeping.
type Cacheus struct {
	srlru *srLRU
	crlfu *crLFU

	wSR, wCR float64
	lr       float64
	clock    int64
	rng      *rand.Rand

	// Adaptive learning rate state: hit counts over fixed windows.
	windowSize   int64
	windowHits   int64
	windowOps    int64
	prevHitRate  float64
	prevLRChange float64
}

// NewCacheus returns a Cacheus policy sized for capacityHint entries.
func NewCacheus(capacityHint int) *Cacheus {
	if capacityHint < 1 {
		capacityHint = 1
	}
	return &Cacheus{
		srlru:      newSRLRU(capacityHint),
		crlfu:      newCRLFU(capacityHint),
		wSR:        0.5,
		wCR:        0.5,
		lr:         math.Sqrt(2 * math.Ln2 / float64(capacityHint)),
		rng:        rand.New(rand.NewSource(1)),
		windowSize: int64(capacityHint),
	}
}

// OnInsert implements Policy.
func (p *Cacheus) OnInsert(h *Handle) {
	p.clock++
	p.srlru.insert(h)
	p.crlfu.insert(h)
}

// OnAccess implements Policy.
func (p *Cacheus) OnAccess(h *Handle) {
	p.clock++
	p.windowHits++
	p.tickWindow()
	p.srlru.touch(h)
	p.crlfu.lfu.OnAccess(h)
}

// OnMiss implements Policy.
func (p *Cacheus) OnMiss(key []byte) {
	p.clock++
	p.tickWindow()
	// Regret updates against each expert's ghost history.
	if p.srlru.hist.contains(key) {
		p.wCR *= math.Exp(p.lr)
		p.normalize()
	}
	if p.crlfu.hist.contains(key) {
		p.wSR *= math.Exp(p.lr)
		p.normalize()
	}
	p.srlru.onMiss(key)
}

// tickWindow adapts the learning rate once per window: if the hit rate
// improved since the last window, keep the direction of the last change;
// otherwise reverse and shrink, per the Cacheus gradient heuristic.
func (p *Cacheus) tickWindow() {
	p.windowOps++
	if p.windowOps < p.windowSize {
		return
	}
	hitRate := float64(p.windowHits) / float64(p.windowOps)
	delta := hitRate - p.prevHitRate
	change := p.prevLRChange
	if change == 0 {
		change = p.lr * 0.1
	}
	if delta < 0 {
		change = -change * 0.5
	}
	p.lr = clamp(p.lr+change, 0.001, 1)
	p.prevLRChange = change
	p.prevHitRate = hitRate
	p.windowHits, p.windowOps = 0, 0
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func (p *Cacheus) normalize() {
	sum := p.wSR + p.wCR
	p.wSR /= sum
	p.wCR /= sum
}

// OnRemove implements Policy.
func (p *Cacheus) OnRemove(h *Handle) {
	p.srlru.remove(h)
	p.crlfu.lfu.OnRemove(h)
}

// Evict implements Policy.
func (p *Cacheus) Evict() *Handle {
	if p.Len() == 0 {
		return nil
	}
	var victim *Handle
	if p.rng.Float64() < p.wSR {
		victim = p.srlru.evict()
		p.crlfu.lfu.OnRemove(victim)
	} else {
		victim = p.crlfu.evictToHistory()
		p.srlru.remove(victim)
	}
	return victim
}

// Len implements Policy.
func (p *Cacheus) Len() int { return p.srlru.len() }

// Name implements Policy.
func (p *Cacheus) Name() string { return "cacheus" }

// Weights reports (wSR-LRU, wCR-LFU).
func (p *Cacheus) Weights() (float64, float64) { return p.wSR, p.wCR }

// srLRU is the scan-resistant LRU expert. The cache is split into a scan
// segment S (new, never-reused keys) and a reused segment R; evictions come
// from S so one-shot scan traffic cannot flush reused data. A ghost history
// recognises prematurely evicted keys, and an ARC-style target steers the
// S/R split.
type srLRU struct {
	cap     int
	s, r    hlist // front = MRU
	hist    *ghostList
	targetS int
}

const (
	inS listID = iota
	inR
)

func newSRLRU(capacity int) *srLRU {
	return &srLRU{
		cap:     capacity,
		s:       hlist{kind: recency},
		r:       hlist{kind: recency},
		hist:    newGhostList(capacity),
		targetS: capacity / 2,
	}
}

func (p *srLRU) pushFront(h *Handle, to listID) {
	h.list = to
	if to == inS {
		p.s.pushFront(h)
	} else {
		p.r.pushFront(h)
	}
}

func (p *srLRU) insert(h *Handle) {
	if key := h.owner.PolicyKey(); p.hist.contains(key) {
		// Returning key: it has proven reuse, admit straight to R.
		p.hist.remove(key)
		p.pushFront(h, inR)
	} else {
		p.pushFront(h, inS)
	}
	p.rebalance()
}

// touch promotes a hit: S hits graduate to R, R hits refresh recency.
func (p *srLRU) touch(h *Handle) {
	if h.list == inS {
		p.s.remove(h)
		p.pushFront(h, inR)
		p.rebalance()
	} else {
		p.r.moveToFront(h)
	}
}

// onMiss adapts the split: a ghost hit means eviction from S was premature,
// so give S more room.
func (p *srLRU) onMiss(key []byte) {
	if p.hist.contains(key) && p.targetS < p.cap-1 {
		p.targetS++
	}
}

// rebalance demotes R's LRU tail into S when R outgrows its share.
func (p *srLRU) rebalance() {
	for p.r.n > p.cap-p.targetS && p.r.n > 1 {
		back := p.r.back
		p.r.remove(back)
		p.pushFront(back, inS)
	}
}

func (p *srLRU) remove(h *Handle) {
	if h.list == inS {
		p.s.remove(h)
	} else {
		p.r.remove(h)
	}
}

func (p *srLRU) evict() *Handle {
	var victim *Handle
	if p.s.n > 0 {
		victim = p.s.back
	} else if p.r.n > 0 {
		victim = p.r.back
		// Evicting from R means S starved; shrink the S target.
		if p.targetS > 1 {
			p.targetS--
		}
	} else {
		return nil
	}
	p.remove(victim)
	p.hist.add(victim.owner.PolicyKey(), 0)
	return victim
}

func (p *srLRU) len() int { return p.s.n + p.r.n }

// crLFU is the churn-resistant LFU expert: LFU with LRU tie-breaking (the
// base LFU provides it), plus frequency inheritance under churn — when
// evictions keep removing frequency-1 keys, newly admitted keys inherit the
// victims' effective frequency so the cache stops cycling the same cohort.
type crLFU struct {
	lfu        *LFU
	hist       *ghostList
	churnRun   int
	churnLimit int
	churnMode  bool
}

func newCRLFU(capacity int) *crLFU {
	limit := capacity / 2
	if limit < 4 {
		limit = 4
	}
	return &crLFU{lfu: NewLFU(), hist: newGhostList(capacity), churnLimit: limit}
}

func (p *crLFU) insert(h *Handle) {
	p.lfu.OnInsert(h)
	if p.churnMode {
		// Inherit the churn cohort's effective frequency so the newcomer is
		// not the automatic next victim.
		p.lfu.SetFreq(h, 2)
	}
	p.hist.remove(h.owner.PolicyKey())
}

func (p *crLFU) evictToHistory() *Handle {
	victimFreq := p.lfu.minFreq()
	victim := p.lfu.Evict()
	if victim == nil {
		return nil
	}
	if victimFreq <= 1 {
		p.churnRun++
	} else {
		p.churnRun = 0
	}
	p.churnMode = p.churnRun >= p.churnLimit
	p.hist.add(victim.owner.PolicyKey(), 0)
	return victim
}
