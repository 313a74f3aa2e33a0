package policy

import (
	"container/list"
	"math"
	"math/rand"
)

// LeCaR implements the learning cache replacement policy of Vietri et al.
// (HotStorage'18): it maintains LRU and LFU views of the cached set and a
// weight per expert, samples the eviction expert by weight, and performs
// regret updates when a missed key is found in an expert's ghost history
// (the expert that evicted it is penalised, discounted by how long ago the
// eviction happened).
type LeCaR struct {
	lru *LRU
	lfu *LFU

	wLRU, wLFU   float64
	learningRate float64
	discount     float64

	histLRU *ghostList
	histLFU *ghostList

	clock int64
	rng   *rand.Rand
}

// NewLeCaR returns a LeCaR policy. capacityHint sizes the ghost histories
// and sets the regret discount rate, per the original paper
// (d = 0.005^(1/N)).
func NewLeCaR(capacityHint int) *LeCaR {
	if capacityHint < 1 {
		capacityHint = 1
	}
	return &LeCaR{
		lru:          NewLRU(),
		lfu:          NewLFU(),
		wLRU:         0.5,
		wLFU:         0.5,
		learningRate: 0.45,
		discount:     math.Pow(0.005, 1/float64(capacityHint)),
		histLRU:      newGhostList(capacityHint),
		histLFU:      newGhostList(capacityHint),
		rng:          rand.New(rand.NewSource(1)),
	}
}

// OnInsert implements Policy.
func (p *LeCaR) OnInsert(h *Handle) {
	p.clock++
	p.lru.OnInsert(h)
	p.lfu.OnInsert(h)
	// A key re-entering the cache leaves the histories.
	p.histLRU.remove(h.owner.PolicyKey())
	p.histLFU.remove(h.owner.PolicyKey())
}

// OnAccess implements Policy.
func (p *LeCaR) OnAccess(h *Handle) {
	p.clock++
	p.lru.OnAccess(h)
	p.lfu.OnAccess(h)
}

// OnMiss implements Policy: regret update against ghost histories.
func (p *LeCaR) OnMiss(key []byte) {
	p.clock++
	if t, ok := p.histLRU.get(key); ok {
		// LRU evicted a key that came back: penalise LRU.
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

func (p *LeCaR) normalize() {
	sum := p.wLRU + p.wLFU
	p.wLRU /= sum
	p.wLFU /= sum
}

// OnRemove implements Policy.
func (p *LeCaR) OnRemove(h *Handle) {
	p.lru.OnRemove(h)
	p.lfu.OnRemove(h)
}

// Evict implements Policy: sample an expert by weight and evict its victim.
func (p *LeCaR) Evict() *Handle {
	if p.lru.Len() == 0 {
		return nil
	}
	var victim *Handle
	if p.rng.Float64() < p.wLRU {
		victim = p.lru.Evict()
		p.lfu.OnRemove(victim)
		p.histLRU.add(victim.owner.PolicyKey(), p.clock)
	} else {
		victim = p.lfu.Evict()
		p.lru.OnRemove(victim)
		p.histLFU.add(victim.owner.PolicyKey(), p.clock)
	}
	return victim
}

// Len implements Policy.
func (p *LeCaR) Len() int { return p.lru.Len() }

// Name implements Policy.
func (p *LeCaR) Name() string { return "lecar" }

// Weights reports the current expert weights (wLRU, wLFU) for tests and
// experiment traces.
func (p *LeCaR) Weights() (float64, float64) { return p.wLRU, p.wLFU }

// ghostList is a bounded FIFO of evicted keys with their eviction times —
// the one place a policy still knows an entry by its key, because the entry
// itself is gone. Lookups take the key as bytes and do not allocate.
type ghostList struct {
	cap   int
	ll    *list.List // front = newest
	items map[string]*list.Element
}

type ghostEntry struct {
	key  string
	time int64
}

func newGhostList(capacity int) *ghostList {
	return &ghostList{cap: capacity, ll: list.New(), items: make(map[string]*list.Element)}
}

func (g *ghostList) add(key []byte, t int64) {
	if e, ok := g.items[string(key)]; ok {
		e.Value.(*ghostEntry).time = t
		g.ll.MoveToFront(e)
		return
	}
	ge := &ghostEntry{key: string(key), time: t}
	g.items[ge.key] = g.ll.PushFront(ge)
	for g.ll.Len() > g.cap {
		g.dropOldest()
	}
}

func (g *ghostList) dropOldest() {
	back := g.ll.Back()
	delete(g.items, back.Value.(*ghostEntry).key)
	g.ll.Remove(back)
}

func (g *ghostList) get(key []byte) (int64, bool) {
	if e, ok := g.items[string(key)]; ok {
		return e.Value.(*ghostEntry).time, true
	}
	return 0, false
}

func (g *ghostList) remove(key []byte) {
	if e, ok := g.items[string(key)]; ok {
		g.ll.Remove(e)
		delete(g.items, e.Value.(*ghostEntry).key)
	}
}

func (g *ghostList) contains(key []byte) bool {
	_, ok := g.items[string(key)]
	return ok
}

func (g *ghostList) len() int { return g.ll.Len() }
