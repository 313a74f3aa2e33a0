package policy

// ARC implements the Adaptive Replacement Cache of Megiddo & Modha
// (FAST'03): two live lists — T1 (seen once, recency) and T2 (seen at least
// twice, frequency) — and two ghost lists (B1, B2) whose hits steer the
// adaptive target p for T1's share. AC-Key (ATC'20), one of the paper's
// related systems, drives its hierarchical caches with ARC; it is provided
// here as an additional pluggable policy ("arc").
type ARC struct {
	capacity int
	p        int // target size of T1

	t1, t2 hlist // front = MRU
	// b1 and b2 are bounded jointly, by truncateGhosts; each list's own
	// bound is set just out of reach.
	b1, b2 *ghostList
}

const (
	inT1 listID = iota
	inT2
)

// NewARC returns an ARC policy sized for capacity entries. ARC needs the
// entry capacity up front (its lists balance against it); the owning cache
// passes its capacity hint.
func NewARC(capacity int) *ARC {
	if capacity < 1 {
		capacity = 1
	}
	return &ARC{
		capacity: capacity,
		t1:       hlist{kind: recency}, t2: hlist{kind: recency},
		b1: newGhostList(capacity + 1), b2: newGhostList(capacity + 1),
	}
}

func (p *ARC) listOf(h *Handle) *hlist {
	if h.list == inT1 {
		return &p.t1
	}
	return &p.t2
}

func (p *ARC) pushT2(h *Handle) {
	h.list = inT2
	p.t2.pushFront(h)
}

// OnInsert implements Policy. A key found in a ghost list adapts the target
// and re-enters on the frequency side; ARC's original formulation puts the
// adaptation here, on reinsertion, not on the miss.
func (p *ARC) OnInsert(h *Handle) {
	key := h.owner.PolicyKey()
	switch {
	case p.b1.contains(key):
		// Ghost hit on the recency side: grow T1's target.
		p.p = min(p.p+max(1, p.b2.len()/max(1, p.b1.len())), p.capacity)
		p.b1.remove(key)
		p.pushT2(h)
	case p.b2.contains(key):
		// Ghost hit on the frequency side: shrink T1's target.
		p.p = max(p.p-max(1, p.b1.len()/max(1, p.b2.len())), 0)
		p.b2.remove(key)
		p.pushT2(h)
	default:
		h.list = inT1
		p.t1.pushFront(h)
		p.truncateGhosts()
	}
}

// OnAccess implements Policy: a second touch promotes T1 → T2.
func (p *ARC) OnAccess(h *Handle) {
	p.listOf(h).remove(h)
	p.pushT2(h)
}

// OnMiss implements Policy.
func (p *ARC) OnMiss([]byte) {}

// OnRemove implements Policy.
func (p *ARC) OnRemove(h *Handle) { p.listOf(h).remove(h) }

// Evict implements Policy: replace per ARC — evict T1's LRU into B1 when T1
// exceeds its target, else T2's LRU into B2.
func (p *ARC) Evict() *Handle {
	var victim *Handle
	if p.t1.n > 0 && (p.t1.n > p.p || p.t2.n == 0) {
		victim = p.t1.back
		p.t1.remove(victim)
		p.b1.add(victim.owner.PolicyKey(), 0)
	} else if p.t2.n > 0 {
		victim = p.t2.back
		p.t2.remove(victim)
		p.b2.add(victim.owner.PolicyKey(), 0)
	} else {
		return nil
	}
	p.truncateGhosts()
	return victim
}

// truncateGhosts bounds B1+B2 to the cache capacity.
func (p *ARC) truncateGhosts() {
	for p.b1.len()+p.b2.len() > p.capacity {
		if p.b1.len() > p.b2.len() {
			p.b1.dropOldest()
		} else {
			p.b2.dropOldest()
		}
	}
}

// Len implements Policy: only live entries count.
func (p *ARC) Len() int { return p.t1.n + p.t2.n }

// Name implements Policy.
func (p *ARC) Name() string { return "arc" }

// Target reports the adaptive T1 target (tests).
func (p *ARC) Target() int { return p.p }
