// Package memtable implements the in-memory write buffer of the LSM engine
// as a skiplist over internal keys.
//
// Writers are serialised by the DB's write path; readers take a shared lock,
// so concurrent lookups and scans from many client goroutines are safe.
package memtable

import (
	"bytes"
	"math/rand"
	"sync"

	"adcache/internal/keys"
)

const maxHeight = 12

type node struct {
	ikey  keys.InternalKey
	value []byte
	next  []*node
}

// nodeStructBytes is the resident size of one node struct: three slice
// headers (72 bytes) rounded up to the allocator's 80-byte size class.
const nodeStructBytes = 80

// allocSize approximates the heap-resident footprint of an n-byte
// allocation: Go's allocator hands out the next small-object size class,
// not the requested length, so charging raw lengths undercounts what the
// memtable actually pins in memory.
func allocSize(n int) int64 {
	switch {
	case n == 0:
		return 0
	case n <= 8:
		return 8
	case n <= 16:
		return 16
	case n <= 32:
		return 32
	case n <= 1024:
		return (int64(n) + 15) &^ 15
	default:
		return (int64(n) + 511) &^ 511
	}
}

// entryBytes is the charge for one inserted entry: the node struct, its
// height-h next array, and its key and value bytes, each rounded as if it
// were an allocation of its own. The arena packs entries tighter than
// that (TestApproximateSizeTracksHeap bounds the gap); the charge is kept
// so the engine's flush points, and every experiment built on them, stay
// where they were. ApproximateSize sums it, in the same physical currency
// as the block cache's charges.
func entryBytes(ikeyLen, valueLen, h int) int64 {
	return nodeStructBytes + allocSize(8*h) + allocSize(ikeyLen) + allocSize(valueLen)
}

// arena is the memtable's storage: nodes, next arrays and key/value bytes
// are carved from chunks, so an insert allocates only when a chunk runs
// out. A chunk is never freed before the memtable itself is dropped, so
// the slices handed out of it stay valid for as long as anything
// references them.
type arena struct {
	nodes []node
	ptrs  []*node
	bytes []byte
}

// carve returns n elements of *chunk's free space. A full chunk is
// replaced by one twice its size, at least lo and at most hi elements, so
// a memtable holding a few entries pins a few kilobytes; a request above a
// quarter of hi gets an allocation of its own rather than a chunk's tail.
func carve[T any](chunk *[]T, n, lo, hi int) []T {
	if n > hi/4 {
		return make([]T, n)
	}
	c := *chunk
	if cap(c)-len(c) < n {
		c = make([]T, 0, min(max(2*cap(c), lo), hi))
	}
	off := len(c)
	*chunk = c[:off+n]
	return c[off : off+n : off+n]
}

// MemTable is a sorted in-memory buffer of internal keys.
type MemTable struct {
	mu     sync.RWMutex
	head   *node
	height int
	rnd    *rand.Rand
	size   int64
	count  int
	arena  arena
	// splice holds, per level, the node after which the last insert was
	// linked (the inserted node itself at its own levels): the search for
	// an ascending insert starts there instead of at the head.
	splice [maxHeight]*node
}

// New returns an empty memtable. seed makes skiplist heights deterministic
// for reproducible tests; use any value in production.
func New(seed int64) *MemTable {
	m := &MemTable{
		head:   &node{next: make([]*node, maxHeight)},
		height: 1,
		rnd:    rand.New(rand.NewSource(seed)),
	}
	for i := range m.splice {
		m.splice[i] = m.head
	}
	return m
}

func (m *MemTable) randomHeight() int {
	h := 1
	for h < maxHeight && m.rnd.Intn(4) == 0 {
		h++
	}
	return h
}

// findGE returns the first node with ikey >= target, filling prev[] with the
// rightmost node before target at each level if prev is non-nil.
func (m *MemTable) findGE(target keys.InternalKey, prev []*node) *node {
	n := m.head
	for level := m.height - 1; level >= 0; level-- {
		for n.next[level] != nil && keys.Compare(n.next[level].ikey, target) < 0 {
			n = n.next[level]
		}
		if prev != nil {
			prev[level] = n
		}
	}
	return n.next[0]
}

// spliceFits reports whether the last insert's splice brackets target on
// every level below h: each splice node sorts before target and its
// successor, if any, after it. Then target links in right there.
func (m *MemTable) spliceFits(target keys.InternalKey, h int) bool {
	for level := 0; level < h; level++ {
		p := m.splice[level]
		if p != m.head && keys.Compare(p.ikey, target) >= 0 {
			return false
		}
		if nx := p.next[level]; nx != nil && keys.Compare(nx.ikey, target) < 0 {
			return false
		}
	}
	return true
}

// Set inserts the entry userKey@seq of the given kind. Internal keys are
// unique (sequence numbers differ), so Set never overwrites. The key and
// value are copied into the memtable's arena: the caller may reuse both
// once Set returns.
func (m *MemTable) Set(userKey []byte, seq uint64, kind keys.Kind, value []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	klen := len(userKey) + keys.TrailerLen
	buf := carve(&m.arena.bytes, klen+len(value), 4<<10, 256<<10)
	ikey := keys.InternalKey(buf[:klen:klen])
	keys.Encode(ikey, userKey, seq, kind)
	var v []byte // an empty value is kept as nil
	if len(value) > 0 {
		v = buf[klen:]
		copy(v, value)
	}

	h := m.randomHeight()
	if h > m.height {
		m.height = h
	}
	if !m.spliceFits(ikey, h) {
		m.findGE(ikey, m.splice[:m.height])
		for level := m.height; level < maxHeight; level++ {
			m.splice[level] = m.head
		}
	}
	n := &carve(&m.arena.nodes, 1, 32, 4096)[0]
	n.ikey, n.value, n.next = ikey, v, carve(&m.arena.ptrs, h, 64, 4096)
	for level := 0; level < h; level++ {
		n.next[level] = m.splice[level].next[level]
		m.splice[level].next[level] = n
		m.splice[level] = n
	}
	m.size += entryBytes(len(ikey), len(value), h)
	m.count++
}

// Get returns the newest version of userKey visible at snapshot seq.
// deleted reports a tombstone; ok reports whether any visible version exists.
func (m *MemTable) Get(userKey []byte, seq uint64) (value []byte, deleted, ok bool) {
	return m.GetSeek(keys.MakeSearch(userKey, seq), userKey)
}

// GetSeek is Get with a caller-built search key (keys.MakeSearch(userKey,
// seq) or equivalent), letting hot paths reuse one search buffer across the
// memtable queue instead of allocating per probe.
func (m *MemTable) GetSeek(search keys.InternalKey, userKey []byte) (value []byte, deleted, ok bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n := m.findGE(search, nil)
	if n == nil || string(n.ikey.UserKey()) != string(userKey) {
		return nil, false, false
	}
	if n.ikey.Kind() == keys.KindDelete {
		return nil, true, true
	}
	return n.value, false, true
}

// NewerThan reports whether the memtable holds any entry — value or
// tombstone — with a user key in [lo, hi] and a sequence number above seq.
// A nil hi means no upper bound. The engine uses it to decide whether a
// result read at snapshot seq still describes its key span.
func (m *MemTable) NewerThan(lo, hi []byte, seq uint64) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	// The search key at MaxSeq sorts before every version of lo.
	for n := m.findGE(keys.MakeSearch(lo, keys.MaxSeq), nil); n != nil; n = n.next[0] {
		if hi != nil && bytes.Compare(n.ikey.UserKey(), hi) > 0 {
			return false
		}
		if n.ikey.Seq() > seq {
			return true
		}
	}
	return false
}

// ApproximateSize reports the approximate physical memory footprint in
// bytes: skiplist node structs, next arrays, and key/value backing arrays
// with allocator size-class rounding (see entryBytes). TestApproximateSize-
// TracksHeap pins this within ±30% of measured heap growth.
func (m *MemTable) ApproximateSize() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.size
}

// Count reports the number of entries (including tombstones and shadowed
// versions).
func (m *MemTable) Count() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.count
}

// Empty reports whether the memtable holds no entries.
func (m *MemTable) Empty() bool { return m.Count() == 0 }

// Iter is a forward iterator over the memtable. It holds no lock between
// positioning calls; the skiplist is append-only (nodes are never removed or
// relinked below existing nodes' nexts at level 0 past the iterator), and
// reads of next pointers race benignly only if writers run concurrently —
// the DB freezes a memtable before iterating it during flush, and live scan
// iterators take the read lock per step.
type Iter struct {
	m *MemTable
	n *node
}

// NewIter returns an iterator positioned before the first entry.
func (m *MemTable) NewIter() *Iter { return &Iter{m: m} }

// First positions at the first entry.
func (i *Iter) First() bool {
	i.m.mu.RLock()
	defer i.m.mu.RUnlock()
	i.n = i.m.head.next[0]
	return i.n != nil
}

// Seek positions at the first entry with internal key >= target.
func (i *Iter) Seek(target keys.InternalKey) bool {
	i.m.mu.RLock()
	defer i.m.mu.RUnlock()
	i.n = i.m.findGE(target, nil)
	return i.n != nil
}

// Next advances the iterator.
func (i *Iter) Next() bool {
	if i.n == nil {
		return false
	}
	i.m.mu.RLock()
	defer i.m.mu.RUnlock()
	i.n = i.n.next[0]
	return i.n != nil
}

// Valid reports whether the iterator is positioned at an entry.
func (i *Iter) Valid() bool { return i.n != nil }

// Key returns the current internal key.
func (i *Iter) Key() keys.InternalKey { return i.n.ikey }

// Value returns the current value.
func (i *Iter) Value() []byte { return i.n.value }

// Err always returns nil; memtable iteration cannot fail.
func (i *Iter) Err() error { return nil }
