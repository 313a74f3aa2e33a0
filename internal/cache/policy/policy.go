// Package policy provides pluggable eviction policies for the result caches:
// LRU, LeCaR (Vietri et al., HotStorage'18) and Cacheus (Rodriguez et al.,
// FAST'21). The paper evaluates Range Cache variants that swap LRU for LeCaR
// or Cacheus, so the range cache accepts any Policy. LFU is the frequency
// expert inside LeCaR and Cacheus.
//
// A resident entry is identified by the Handle its cache entry embeds: the
// policy's list links, frequency bucket and list id live in the entry
// itself, so a hit or an insert is a pointer splice and a victim is handed
// back as the entry, with no key-to-node map in between. Keys survive as
// strings only in the ghost histories of LeCaR and Cacheus, which
// remember entries that are gone. The owning cache stores the bytes and
// enforces the capacity, asking the policy for victims. Implementations are
// not safe for concurrent use — the owning cache shards and locks.
package policy

// Keyed is the cache entry a Handle is embedded in. Policies with ghost
// histories read the key when the entry leaves the cache.
type Keyed interface {
	PolicyKey() []byte
}

// Handle is a policy's per-entry state. The cache embeds one in each entry,
// binds it once with Init and passes it to the policy; everything else in
// it belongs to the policy tracking the entry.
type Handle struct {
	owner Keyed
	// links[recency] chains the entry into an LRU-ordered list (LRU,
	// SR-LRU's S/R); links[frequency] into its LFU frequency bucket.
	// LeCaR and Cacheus keep an entry in one list of each kind at once.
	links  [2]link
	bucket *freqBucket
	list   listID
}

type link struct{ prev, next *Handle }

const (
	recency = iota
	frequency
)

// listID says which of a policy's recency lists holds the entry.
type listID uint8

// Init binds the handle to the entry embedding it.
func (h *Handle) Init(owner Keyed) { h.owner = owner }

// Owner returns the entry the handle was bound to.
func (h *Handle) Owner() Keyed { return h.owner }

// hlist is an intrusive doubly-linked list of handles threaded through
// links[kind]; front = most recent.
type hlist struct {
	front, back *Handle
	n           int
	kind        int
}

func (l *hlist) pushFront(h *Handle) {
	lk := &h.links[l.kind]
	lk.prev, lk.next = nil, l.front
	if l.front != nil {
		l.front.links[l.kind].prev = h
	} else {
		l.back = h
	}
	l.front = h
	l.n++
}

func (l *hlist) remove(h *Handle) {
	lk := &h.links[l.kind]
	if lk.prev != nil {
		lk.prev.links[l.kind].next = lk.next
	} else {
		l.front = lk.next
	}
	if lk.next != nil {
		lk.next.links[l.kind].prev = lk.prev
	} else {
		l.back = lk.prev
	}
	lk.prev, lk.next = nil, nil
	l.n--
}

func (l *hlist) moveToFront(h *Handle) {
	if l.front != h {
		l.remove(h)
		l.pushFront(h)
	}
}

// Policy decides evictions for a capacity-bounded cache. Handles passed to
// OnAccess and OnRemove must be resident (inserted and not since removed or
// evicted); OnInsert takes a handle that is not.
type Policy interface {
	// OnInsert records that the entry entered the cache.
	OnInsert(h *Handle)
	// OnAccess records a cache hit on the entry.
	OnAccess(h *Handle)
	// OnMiss records a lookup miss (some policies learn from ghost hits).
	OnMiss(key []byte)
	// OnRemove records that the entry left the cache for a non-eviction
	// reason (invalidation by a write, shrink, etc.).
	OnRemove(h *Handle)
	// Evict selects a victim, removes it from the policy's bookkeeping and
	// returns it; nil when the policy tracks nothing.
	Evict() *Handle
	// Len reports how many entries the policy tracks.
	Len() int
	// Name identifies the policy in metrics and experiment output.
	Name() string
}

// New constructs a policy by name: "lru", "lecar" or "cacheus". Unknown
// names fall back to LRU.
func New(name string, capacityHint int) Policy {
	switch name {
	case "lecar":
		return NewLeCaR(capacityHint)
	case "cacheus":
		return NewCacheus(capacityHint)
	default:
		return NewLRU()
	}
}
