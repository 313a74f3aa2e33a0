package policy

// LRU is the classic least-recently-used policy.
type LRU struct {
	ll hlist // front = most recent
}

// NewLRU returns an empty LRU policy.
func NewLRU() *LRU { return &LRU{ll: hlist{kind: recency}} }

// OnInsert implements Policy.
func (p *LRU) OnInsert(h *Handle) { p.ll.pushFront(h) }

// OnAccess implements Policy.
func (p *LRU) OnAccess(h *Handle) { p.ll.moveToFront(h) }

// OnMiss implements Policy.
func (p *LRU) OnMiss([]byte) {}

// OnRemove implements Policy.
func (p *LRU) OnRemove(h *Handle) { p.ll.remove(h) }

// Evict implements Policy.
func (p *LRU) Evict() *Handle {
	h := p.ll.back
	if h != nil {
		p.ll.remove(h)
	}
	return h
}

// Len implements Policy.
func (p *LRU) Len() int { return p.ll.n }

// Name implements Policy.
func (p *LRU) Name() string { return "lru" }
