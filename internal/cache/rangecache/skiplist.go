package rangecache

import (
	"bytes"
	"math/rand"

	"adcache/internal/cache/policy"
)

// skiplist is the ordered index of one shard — the "sorted structure" of the
// Range Cache design. Every operation on it starts from one descent, seek,
// which leaves a finger: the predecessor of the sought key at every level.
// Insertion and removal happen at the finger and move it along, so a batch
// of consecutive keys, or a run of consecutive victims, is spliced with one
// descent for the lot. Not safe for concurrent use; the shard locks around
// it.
type skiplist struct {
	head   *node
	height int
	rnd    *rand.Rand
	count  int
	// finger[l] is the last node at level l whose key sorts before the key
	// of the latest seek, advanced past every node inserted or visited
	// since. Valid only until the next seek.
	finger [slMaxHeight]*node
	// towers is the slab the next tall nodes' towers are cut from, so that
	// towers cost an allocation per slab, not per tall node.
	towers []*node
	// descents counts seeks; tests pin the one-descent rule with it.
	descents int
}

const (
	slMaxHeight = 12
	towerSlab   = 32 // pointers per slab: the towers of about 96 nodes
)

// node is one cached key-value pair: the cache entry with its coverage
// metadata, its key, the policy's handle and the skiplist links in a single
// object, so admitting an entry is one allocation, evicting one frees one,
// and a descent that visits a node finds the key it compares right beside
// the link it follows.
//
// contigNext claims that the next cache entry (in key order, same shard) is
// this key's immediate successor in the database: a scan passing through
// this entry may continue to the next without missing keys. On a shard's
// last entry it claims the database holds no keys between the entry and
// the shard's upper edge, and never anything on the last shard's. lowerBound,
// when non-empty, claims the database holds no keys in [lowerBound, key) —
// it extends coverage below the entry so scans starting in that gap can
// anchor here.
type node struct {
	next0  *node   // level-0 successor
	tower  []*node // successors at levels 1..; nil for the 3 in 4 nodes of height 1
	key    []byte  // keyBuf[:len] unless the key is longer than that
	keyBuf [inlineKeyLen]byte

	value      []byte
	lowerBound []byte // empty means none
	contigNext bool
	epoch      uint32 // the cache's epoch when the entry was last touched
	policy.Handle
}

// inlineKeyLen is the longest key stored inside its node.
const inlineKeyLen = 32

// PolicyKey implements policy.Keyed.
func (n *node) PolicyKey() []byte { return n.key }

func (n *node) size() int64 { return int64(len(n.key)+len(n.value)) + entryOverhead }

// entryOverhead approximates per-entry bookkeeping bytes (node, links,
// policy handle, flags), charged against the cache budget.
const entryOverhead = 64

func (n *node) next(level int) *node {
	if level == 0 {
		return n.next0
	}
	return n.tower[level-1]
}

func (n *node) setNext(level int, to *node) {
	if level == 0 {
		n.next0 = to
	} else {
		n.tower[level-1] = to
	}
}

func newSkiplist(seed int64) *skiplist {
	return &skiplist{
		head:   &node{tower: make([]*node, slMaxHeight-1)},
		height: 1,
		rnd:    rand.New(rand.NewSource(seed)),
	}
}

func (s *skiplist) randomHeight() int {
	h := 1
	for h < slMaxHeight && s.rnd.Intn(4) == 0 {
		h++
	}
	return h
}

// seek descends to target, leaving the finger on its predecessors, and
// returns the level-0 one: the last node whose key sorts before target, or
// the head (which carries no claims) when there is none. The first node at
// or after target is the result's next0.
func (s *skiplist) seek(target []byte) *node {
	s.descents++
	n := s.head
	for level := s.height - 1; level >= 1; level-- {
		for nx := n.tower[level-1]; nx != nil && bytes.Compare(nx.key, target) < 0; nx = n.tower[level-1] {
			n = nx
		}
		s.finger[level] = n
	}
	for nx := n.next0; nx != nil && bytes.Compare(nx.key, target) < 0; nx = n.next0 {
		n = nx
	}
	s.finger[0] = n
	return n
}

// step returns the node right after the finger if it holds key, and nil if
// key belongs there instead: the step of a walk over keys that are
// consecutive in the database the cache is a subset of. Should the finger
// have fallen behind — a cached key sorts before key, so the caller's keys
// were not consecutive — it descends again to keep the index sorted.
func (s *skiplist) step(key []byte) *node {
	for n := s.finger[0].next0; n != nil; n = s.seek(key).next0 {
		if cmp := bytes.Compare(n.key, key); cmp >= 0 {
			if cmp == 0 {
				return n
			}
			break
		}
	}
	return nil
}

// advance moves the finger past n, the node right after it.
func (s *skiplist) advance(n *node) {
	s.finger[0] = n
	for level := range n.tower {
		s.finger[level+1] = n
	}
}

// insert links n right after the finger and advances the finger past it.
// n's key must sort after the finger and before the finger's successor.
func (s *skiplist) insert(n *node) {
	h := s.randomHeight()
	if h > 1 {
		if len(s.towers)+h-1 > cap(s.towers) {
			s.towers = make([]*node, 0, towerSlab)
		}
		o := len(s.towers)
		s.towers = s.towers[:o+h-1]
		n.tower = s.towers[o : o+h-1 : o+h-1]
	}
	for ; s.height < h; s.height++ {
		s.finger[s.height] = s.head
	}
	for level := 0; level < h; level++ {
		prev := s.finger[level]
		n.setNext(level, prev.next(level))
		prev.setNext(level, n)
	}
	s.advance(n)
	s.count++
}

// unlink removes n, the node right after the finger. The finger stays valid
// for n's successor: whatever preceded n at a level precedes that one too.
func (s *skiplist) unlink(n *node) {
	s.finger[0].next0 = n.next0
	for level, nx := range n.tower {
		s.finger[level+1].tower[level] = nx
	}
	clear(n.tower) // its slab outlives it; leave no reference behind
	n.next0, n.tower = nil, nil
	s.count--
}

// rebuild makes the list hold exactly nodes, which are sorted and keep
// their towers, linking them in one pass. The finger is left invalid.
func (s *skiplist) rebuild(nodes []*node) {
	clear(s.head.tower)
	s.head.next0 = nil
	s.height = 1
	tail := &s.finger
	for level := range tail {
		tail[level] = s.head
	}
	for _, n := range nodes {
		n.next0 = nil
		clear(n.tower)
		for level := 0; level <= len(n.tower); level++ {
			tail[level].setNext(level, n)
			tail[level] = n
		}
		s.height = max(s.height, len(n.tower)+1)
	}
	s.count = len(nodes)
}

// first returns the lowest-keyed node, or nil.
func (s *skiplist) first() *node { return s.head.next0 }

// len reports the entry count.
func (s *skiplist) len() int { return s.count }
