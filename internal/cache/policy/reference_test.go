package policy

// The string-keyed policies this package shipped before its interface moved
// to embedded handles, kept verbatim (types renamed ref*) as oracles for
// TestHandlePoliciesMatchReference. They exist only in this test.

import (
	"container/list"
	"math"
	"math/rand"
)

type refPolicy interface {
	OnInsert(key string)
	OnAccess(key string)
	OnMiss(key string)
	OnRemove(key string)
	Evict() (key string, ok bool)
	Len() int
	Name() string
}

// refLRU is the classic least-recently-used policy.
type refLRU struct {
	ll    *list.List // front = most recent
	items map[string]*list.Element
}

// newRefLRU returns an empty refLRU policy.
func newRefLRU() *refLRU {
	return &refLRU{ll: list.New(), items: make(map[string]*list.Element)}
}

// OnInsert implements Policy.
func (p *refLRU) OnInsert(key string) {
	if e, ok := p.items[key]; ok {
		p.ll.MoveToFront(e)
		return
	}
	p.items[key] = p.ll.PushFront(key)
}

// OnAccess implements Policy.
func (p *refLRU) OnAccess(key string) {
	if e, ok := p.items[key]; ok {
		p.ll.MoveToFront(e)
	}
}

// OnMiss implements Policy.
func (p *refLRU) OnMiss(string) {}

// OnRemove implements Policy.
func (p *refLRU) OnRemove(key string) {
	if e, ok := p.items[key]; ok {
		p.ll.Remove(e)
		delete(p.items, key)
	}
}

// Evict implements Policy.
func (p *refLRU) Evict() (string, bool) {
	e := p.ll.Back()
	if e == nil {
		return "", false
	}
	key := e.Value.(string)
	p.ll.Remove(e)
	delete(p.items, key)
	return key, true
}

// Len implements Policy.
func (p *refLRU) Len() int { return len(p.items) }

// Name implements Policy.
func (p *refLRU) Name() string { return "lru" }

// Oldest returns the current victim candidate without removing it.
func (p *refLRU) Oldest() (string, bool) {
	e := p.ll.Back()
	if e == nil {
		return "", false
	}
	return e.Value.(string), true
}

// refLFU is an O(1) least-frequently-used policy using frequency buckets, with
// refLRU tie-breaking inside a bucket (the oldest of the least-used keys goes
// first).
type refLFU struct {
	buckets *list.List // ascending frequency; each element is *refFreqBucket
	items   map[string]*refLFUEntry
}

type refFreqBucket struct {
	freq    int64
	entries *list.List // front = most recent; evict from back
}

type refLFUEntry struct {
	key    string
	bucket *list.Element // into refLFU.buckets
	elem   *list.Element // into refFreqBucket.entries
}

// newRefLFU returns an empty refLFU policy.
func newRefLFU() *refLFU {
	return &refLFU{buckets: list.New(), items: make(map[string]*refLFUEntry)}
}

// OnInsert implements Policy.
func (p *refLFU) OnInsert(key string) {
	if e, ok := p.items[key]; ok {
		p.promote(e)
		return
	}
	front := p.buckets.Front()
	var b *refFreqBucket
	if front == nil || front.Value.(*refFreqBucket).freq != 1 {
		b = &refFreqBucket{freq: 1, entries: list.New()}
		front = p.buckets.PushFront(b)
	} else {
		b = front.Value.(*refFreqBucket)
	}
	ent := &refLFUEntry{key: key, bucket: front}
	ent.elem = b.entries.PushFront(ent)
	p.items[key] = ent
}

// OnAccess implements Policy.
func (p *refLFU) OnAccess(key string) {
	if e, ok := p.items[key]; ok {
		p.promote(e)
	}
}

// promote moves e to the next-higher frequency bucket.
func (p *refLFU) promote(e *refLFUEntry) {
	cur := e.bucket
	b := cur.Value.(*refFreqBucket)
	next := cur.Next()
	var nb *refFreqBucket
	if next == nil || next.Value.(*refFreqBucket).freq != b.freq+1 {
		nb = &refFreqBucket{freq: b.freq + 1, entries: list.New()}
		next = p.buckets.InsertAfter(nb, cur)
	} else {
		nb = next.Value.(*refFreqBucket)
	}
	b.entries.Remove(e.elem)
	if b.entries.Len() == 0 {
		p.buckets.Remove(cur)
	}
	e.bucket = next
	e.elem = nb.entries.PushFront(e)
}

// OnMiss implements Policy.
func (p *refLFU) OnMiss(string) {}

// OnRemove implements Policy.
func (p *refLFU) OnRemove(key string) {
	e, ok := p.items[key]
	if !ok {
		return
	}
	p.removeEntry(e)
}

func (p *refLFU) removeEntry(e *refLFUEntry) {
	b := e.bucket.Value.(*refFreqBucket)
	b.entries.Remove(e.elem)
	if b.entries.Len() == 0 {
		p.buckets.Remove(e.bucket)
	}
	delete(p.items, e.key)
}

// Evict implements Policy: removes the least-recently-used key of the
// lowest-frequency bucket.
func (p *refLFU) Evict() (string, bool) {
	front := p.buckets.Front()
	if front == nil {
		return "", false
	}
	b := front.Value.(*refFreqBucket)
	victim := b.entries.Back().Value.(*refLFUEntry)
	p.removeEntry(victim)
	return victim.key, true
}

// Len implements Policy.
func (p *refLFU) Len() int { return len(p.items) }

// Name implements Policy.
func (p *refLFU) Name() string { return "lfu" }

// Freq reports key's frequency counter (tests and refCacheus's CR-LFU).
func (p *refLFU) Freq(key string) int64 {
	if e, ok := p.items[key]; ok {
		return e.bucket.Value.(*refFreqBucket).freq
	}
	return 0
}

// SetFreq reinserts key at an explicit frequency (CR-LFU churn handling).
func (p *refLFU) SetFreq(key string, freq int64) {
	if e, ok := p.items[key]; ok {
		p.removeEntry(e)
	}
	if freq < 1 {
		freq = 1
	}
	// Find or create the bucket with the requested frequency.
	var at *list.Element
	for el := p.buckets.Front(); el != nil; el = el.Next() {
		f := el.Value.(*refFreqBucket).freq
		if f == freq {
			at = el
			break
		}
		if f > freq {
			at = p.buckets.InsertBefore(&refFreqBucket{freq: freq, entries: list.New()}, el)
			break
		}
	}
	if at == nil {
		at = p.buckets.PushBack(&refFreqBucket{freq: freq, entries: list.New()})
	}
	b := at.Value.(*refFreqBucket)
	ent := &refLFUEntry{key: key, bucket: at}
	ent.elem = b.entries.PushFront(ent)
	p.items[key] = ent
}

func refMinInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func refMaxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// refLeCaR implements the learning cache replacement policy of Vietri et al.
// (HotStorage'18): it maintains refLRU and refLFU views of the cached set and a
// weight per expert, samples the eviction expert by weight, and performs
// regret updates when a missed key is found in an expert's ghost history
// (the expert that evicted it is penalised, discounted by how long ago the
// eviction happened).
type refLeCaR struct {
	lru *refLRU
	lfu *refLFU

	wLRU, wLFU   float64
	learningRate float64
	discount     float64

	histLRU *refGhostList
	histLFU *refGhostList

	clock int64
	rng   *rand.Rand
}

// newRefLeCaR returns a refLeCaR policy. capacityHint sizes the ghost histories
// and sets the regret discount rate, per the original paper
// (d = 0.005^(1/N)).
func newRefLeCaR(capacityHint int) *refLeCaR {
	if capacityHint < 1 {
		capacityHint = 1
	}
	return &refLeCaR{
		lru:          newRefLRU(),
		lfu:          newRefLFU(),
		wLRU:         0.5,
		wLFU:         0.5,
		learningRate: 0.45,
		discount:     math.Pow(0.005, 1/float64(capacityHint)),
		histLRU:      newRefGhostList(capacityHint),
		histLFU:      newRefGhostList(capacityHint),
		rng:          rand.New(rand.NewSource(1)),
	}
}

// OnInsert implements Policy.
func (p *refLeCaR) OnInsert(key string) {
	p.clock++
	p.lru.OnInsert(key)
	p.lfu.OnInsert(key)
	// A key re-entering the cache leaves the histories.
	p.histLRU.remove(key)
	p.histLFU.remove(key)
}

// OnAccess implements Policy.
func (p *refLeCaR) OnAccess(key string) {
	p.clock++
	p.lru.OnAccess(key)
	p.lfu.OnAccess(key)
}

// OnMiss implements Policy: regret update against ghost histories.
func (p *refLeCaR) OnMiss(key string) {
	p.clock++
	if t, ok := p.histLRU.get(key); ok {
		// refLRU evicted a key that came back: penalise refLRU.
		regret := math.Pow(p.discount, float64(p.clock-t))
		p.wLFU *= math.Exp(p.learningRate * regret)
		p.normalize()
		p.histLRU.remove(key)
	} else if t, ok := p.histLFU.get(key); ok {
		regret := math.Pow(p.discount, float64(p.clock-t))
		p.wLRU *= math.Exp(p.learningRate * regret)
		p.normalize()
		p.histLFU.remove(key)
	}
}

func (p *refLeCaR) normalize() {
	sum := p.wLRU + p.wLFU
	p.wLRU /= sum
	p.wLFU /= sum
}

// OnRemove implements Policy.
func (p *refLeCaR) OnRemove(key string) {
	p.lru.OnRemove(key)
	p.lfu.OnRemove(key)
}

// Evict implements Policy: sample an expert by weight and evict its victim.
func (p *refLeCaR) Evict() (string, bool) {
	if p.lru.Len() == 0 {
		return "", false
	}
	var victim string
	var ok bool
	if p.rng.Float64() < p.wLRU {
		victim, ok = p.lru.Evict()
		if ok {
			p.lfu.OnRemove(victim)
			p.histLRU.add(victim, p.clock)
		}
	} else {
		victim, ok = p.lfu.Evict()
		if ok {
			p.lru.OnRemove(victim)
			p.histLFU.add(victim, p.clock)
		}
	}
	return victim, ok
}

// Len implements Policy.
func (p *refLeCaR) Len() int { return p.lru.Len() }

// Name implements Policy.
func (p *refLeCaR) Name() string { return "lecar" }

// Weights reports the current expert weights (wLRU, wLFU) for tests and
// experiment traces.
func (p *refLeCaR) Weights() (float64, float64) { return p.wLRU, p.wLFU }

// refGhostList is a bounded FIFO of evicted keys with their eviction times.
type refGhostList struct {
	cap   int
	ll    *list.List // front = newest
	items map[string]*list.Element
}

type refGhostEntry struct {
	key  string
	time int64
}

func newRefGhostList(capacity int) *refGhostList {
	return &refGhostList{cap: capacity, ll: list.New(), items: make(map[string]*list.Element)}
}

func (g *refGhostList) add(key string, t int64) {
	if e, ok := g.items[key]; ok {
		e.Value.(*refGhostEntry).time = t
		g.ll.MoveToFront(e)
		return
	}
	g.items[key] = g.ll.PushFront(&refGhostEntry{key: key, time: t})
	for g.ll.Len() > g.cap {
		back := g.ll.Back()
		delete(g.items, back.Value.(*refGhostEntry).key)
		g.ll.Remove(back)
	}
}

func (g *refGhostList) get(key string) (int64, bool) {
	if e, ok := g.items[key]; ok {
		return e.Value.(*refGhostEntry).time, true
	}
	return 0, false
}

func (g *refGhostList) remove(key string) {
	if e, ok := g.items[key]; ok {
		g.ll.Remove(e)
		delete(g.items, key)
	}
}

func (g *refGhostList) contains(key string) bool {
	_, ok := g.items[key]
	return ok
}

func (g *refGhostList) len() int { return g.ll.Len() }

// refCacheus implements the policy of Rodriguez et al. (FAST'21): the refLeCaR
// weighting framework with two stronger experts — a scan-resistant refLRU
// (SR-LRU) and a churn-resistant refLFU (CR-LFU) — and an adaptive learning
// rate driven by recent performance instead of refLeCaR's fixed rate.
//
// The experts follow the published designs; partition adaptation inside
// SR-LRU uses ARC-style ±1 target adjustment on history hits, a documented
// simplification of the original's demotion bookkeeping.
type refCacheus struct {
	srlru *refSRLRU
	crlfu *refCRLFU

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

// newRefCacheus returns a refCacheus policy sized for capacityHint entries.
func newRefCacheus(capacityHint int) *refCacheus {
	if capacityHint < 1 {
		capacityHint = 1
	}
	return &refCacheus{
		srlru:      newRefSRLRU(capacityHint),
		crlfu:      newRefCRLFU(capacityHint),
		wSR:        0.5,
		wCR:        0.5,
		lr:         math.Sqrt(2 * math.Ln2 / float64(capacityHint)),
		rng:        rand.New(rand.NewSource(1)),
		windowSize: int64(capacityHint),
	}
}

// OnInsert implements Policy.
func (p *refCacheus) OnInsert(key string) {
	p.clock++
	p.srlru.insert(key)
	p.crlfu.OnInsert(key)
}

// OnAccess implements Policy.
func (p *refCacheus) OnAccess(key string) {
	p.clock++
	p.windowHits++
	p.tickWindow()
	p.srlru.access(key)
	p.crlfu.OnAccess(key)
}

// OnMiss implements Policy.
func (p *refCacheus) OnMiss(key string) {
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
// otherwise reverse and shrink, per the refCacheus gradient heuristic.
func (p *refCacheus) tickWindow() {
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
	p.lr = refClamp(p.lr+change, 0.001, 1)
	p.prevLRChange = change
	p.prevHitRate = hitRate
	p.windowHits, p.windowOps = 0, 0
}

func refClamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func (p *refCacheus) normalize() {
	sum := p.wSR + p.wCR
	p.wSR /= sum
	p.wCR /= sum
}

// OnRemove implements Policy.
func (p *refCacheus) OnRemove(key string) {
	p.srlru.remove(key)
	p.crlfu.OnRemove(key)
}

// Evict implements Policy.
func (p *refCacheus) Evict() (string, bool) {
	if p.Len() == 0 {
		return "", false
	}
	var victim string
	var ok bool
	if p.rng.Float64() < p.wSR {
		victim, ok = p.srlru.evict()
		if ok {
			p.crlfu.OnRemove(victim)
		}
	} else {
		victim, ok = p.crlfu.evictToHistory()
		if ok {
			p.srlru.remove(victim)
		}
	}
	return victim, ok
}

// Len implements Policy.
func (p *refCacheus) Len() int { return p.srlru.len() }

// Name implements Policy.
func (p *refCacheus) Name() string { return "cacheus" }

// Weights reports (wSR-LRU, wCR-LFU).
func (p *refCacheus) Weights() (float64, float64) { return p.wSR, p.wCR }

// refSRLRU is the scan-resistant refLRU expert. The cache is split into a scan
// segment S (new, never-reused keys) and a reused segment R; evictions come
// from S so one-shot scan traffic cannot flush reused data. A ghost history
// recognises prematurely evicted keys, and an ARC-style target steers the
// S/R split.
type refSRLRU struct {
	cap     int
	s       *list.List // front = MRU
	r       *list.List
	where   map[string]*refSREntry
	hist    *refGhostList
	targetS int
}

type refSREntry struct {
	key  string
	inS  bool
	elem *list.Element
}

func newRefSRLRU(capacity int) *refSRLRU {
	return &refSRLRU{
		cap:     capacity,
		s:       list.New(),
		r:       list.New(),
		where:   make(map[string]*refSREntry),
		hist:    newRefGhostList(capacity),
		targetS: capacity / 2,
	}
}

func (p *refSRLRU) insert(key string) {
	if e, ok := p.where[key]; ok {
		p.touch(e)
		return
	}
	e := &refSREntry{key: key}
	if p.hist.contains(key) {
		// Returning key: it has proven reuse, admit straight to R.
		p.hist.remove(key)
		e.inS = false
		e.elem = p.r.PushFront(e)
	} else {
		e.inS = true
		e.elem = p.s.PushFront(e)
	}
	p.where[key] = e
	p.rebalance()
}

func (p *refSRLRU) access(key string) {
	if e, ok := p.where[key]; ok {
		p.touch(e)
	}
}

// touch promotes a hit: S hits graduate to R, R hits refresh recency.
func (p *refSRLRU) touch(e *refSREntry) {
	if e.inS {
		p.s.Remove(e.elem)
		e.inS = false
		e.elem = p.r.PushFront(e)
		p.rebalance()
	} else {
		p.r.MoveToFront(e.elem)
	}
}

// onMiss adapts the split: a ghost hit means eviction from S was premature,
// so give S more room.
func (p *refSRLRU) onMiss(key string) {
	if p.hist.contains(key) && p.targetS < p.cap-1 {
		p.targetS++
	}
}

// rebalance demotes R's refLRU tail into S when R outgrows its share.
func (p *refSRLRU) rebalance() {
	for p.r.Len() > p.cap-p.targetS && p.r.Len() > 1 {
		back := p.r.Back()
		e := back.Value.(*refSREntry)
		p.r.Remove(back)
		e.inS = true
		e.elem = p.s.PushFront(e)
	}
}

func (p *refSRLRU) remove(key string) {
	e, ok := p.where[key]
	if !ok {
		return
	}
	if e.inS {
		p.s.Remove(e.elem)
	} else {
		p.r.Remove(e.elem)
	}
	delete(p.where, key)
}

func (p *refSRLRU) evict() (string, bool) {
	var back *list.Element
	if p.s.Len() > 0 {
		back = p.s.Back()
		p.s.Remove(back)
	} else if p.r.Len() > 0 {
		back = p.r.Back()
		p.r.Remove(back)
		// Evicting from R means S starved; shrink the S target.
		if p.targetS > 1 {
			p.targetS--
		}
	} else {
		return "", false
	}
	e := back.Value.(*refSREntry)
	delete(p.where, e.key)
	p.hist.add(e.key, 0)
	return e.key, true
}

func (p *refSRLRU) len() int { return len(p.where) }

// refCRLFU is the churn-resistant refLFU expert: refLFU with refLRU tie-breaking (the
// base refLFU provides it), plus frequency inheritance under churn — when
// evictions keep removing frequency-1 keys, newly admitted keys inherit the
// victims' effective frequency so the cache stops cycling the same cohort.
type refCRLFU struct {
	lfu        *refLFU
	hist       *refGhostList
	churnRun   int
	churnLimit int
	churnMode  bool
}

func newRefCRLFU(capacity int) *refCRLFU {
	limit := capacity / 2
	if limit < 4 {
		limit = 4
	}
	return &refCRLFU{lfu: newRefLFU(), hist: newRefGhostList(capacity), churnLimit: limit}
}

func (p *refCRLFU) OnInsert(key string) {
	p.lfu.OnInsert(key)
	if p.churnMode {
		// Inherit the churn cohort's effective frequency so the newcomer is
		// not the automatic next victim.
		p.lfu.SetFreq(key, 2)
	}
	p.hist.remove(key)
}

func (p *refCRLFU) OnAccess(key string) { p.lfu.OnAccess(key) }

func (p *refCRLFU) OnRemove(key string) { p.lfu.OnRemove(key) }

func (p *refCRLFU) evictToHistory() (string, bool) {
	victimFreq := int64(0)
	if front := p.lfu.buckets.Front(); front != nil {
		victimFreq = front.Value.(*refFreqBucket).freq
	}
	victim, ok := p.lfu.Evict()
	if !ok {
		return "", false
	}
	if victimFreq <= 1 {
		p.churnRun++
	} else {
		p.churnRun = 0
	}
	p.churnMode = p.churnRun >= p.churnLimit
	p.hist.add(victim, 0)
	return victim, true
}
