package policy

// LFU is an O(1) least-frequently-used policy using frequency buckets, with
// LRU tie-breaking inside a bucket (the oldest of the least-used entries
// goes first).
type LFU struct {
	first, last *freqBucket // ascending frequency
	n           int
}

// freqBucket holds the entries of one frequency; an entry's Handle points
// at its bucket.
type freqBucket struct {
	freq       int64
	entries    hlist // front = most recent; evict from back
	prev, next *freqBucket
}

// NewLFU returns an empty LFU policy.
func NewLFU() *LFU { return &LFU{} }

// insertBucket links a new bucket for freq after prev (nil = at the front).
func (p *LFU) insertBucket(freq int64, prev *freqBucket) *freqBucket {
	b := &freqBucket{freq: freq, entries: hlist{kind: frequency}, prev: prev}
	if prev != nil {
		b.next, prev.next = prev.next, b
	} else {
		b.next, p.first = p.first, b
	}
	if b.next != nil {
		b.next.prev = b
	} else {
		p.last = b
	}
	return b
}

// leave takes h out of its bucket, dropping the bucket once it is empty.
func (p *LFU) leave(h *Handle) {
	b := h.bucket
	b.entries.remove(h)
	h.bucket = nil
	if b.entries.n > 0 {
		return
	}
	if b.prev != nil {
		b.prev.next = b.next
	} else {
		p.first = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	} else {
		p.last = b.prev
	}
}

func (b *freqBucket) add(h *Handle) {
	h.bucket = b
	b.entries.pushFront(h)
}

// OnInsert implements Policy.
func (p *LFU) OnInsert(h *Handle) {
	b := p.first
	if b == nil || b.freq != 1 {
		b = p.insertBucket(1, nil)
	}
	b.add(h)
	p.n++
}

// OnAccess implements Policy: the entry moves to the next-higher frequency
// bucket.
func (p *LFU) OnAccess(h *Handle) {
	cur := h.bucket
	next := cur.next
	if next == nil || next.freq != cur.freq+1 {
		next = p.insertBucket(cur.freq+1, cur)
	}
	p.leave(h)
	next.add(h)
}

// OnMiss implements Policy.
func (p *LFU) OnMiss([]byte) {}

// OnRemove implements Policy.
func (p *LFU) OnRemove(h *Handle) {
	p.leave(h)
	p.n--
}

// Evict implements Policy: removes the least-recently-used entry of the
// lowest-frequency bucket.
func (p *LFU) Evict() *Handle {
	if p.first == nil {
		return nil
	}
	victim := p.first.entries.back
	p.OnRemove(victim)
	return victim
}

// Len implements Policy.
func (p *LFU) Len() int { return p.n }

// Name implements Policy.
func (p *LFU) Name() string { return "lfu" }

// Freq reports a resident entry's frequency counter (tests).
func (p *LFU) Freq(h *Handle) int64 { return h.bucket.freq }

// minFreq reports the lowest frequency any entry has, 0 when empty.
func (p *LFU) minFreq() int64 {
	if p.first == nil {
		return 0
	}
	return p.first.freq
}

// SetFreq moves a resident entry to an explicit frequency, as its bucket's
// most recent entry (CR-LFU churn handling).
func (p *LFU) SetFreq(h *Handle, freq int64) {
	p.leave(h)
	if freq < 1 {
		freq = 1
	}
	var prev *freqBucket
	b := p.first
	for b != nil && b.freq < freq {
		prev, b = b, b.next
	}
	if b == nil || b.freq != freq {
		b = p.insertBucket(freq, prev)
	}
	b.add(h)
}
