package rangecache

import (
	"bytes"
	"cmp"
	"encoding/binary"
)

// tree is the ordered index of one shard — the "sorted structure" of the
// Range Cache design: a B+-tree whose nodes hold their keys inline, in key
// order, so a search compares words that sit together in memory instead of
// following one pointer per comparison. Entries stay objects of their own;
// a leaf slot points at one, and the entry points back at its leaf, so an
// entry that leaves the cache (an eviction) is found, with its
// predecessor, without a search.
//
// A search (seek) leaves a cursor: a position between two entries, from
// which a batch of consecutive keys is put in, or walked over, with one
// search for the lot. Every separator in an inner node is the first entry
// of its subtree, so a key that sorts between a leaf's last entry and the
// next leaf's first belongs at the end of that leaf, and a cursor can
// insert there without consulting the nodes above; and a separator never
// keeps an entry that has left the cache alive.
//
// Not safe for concurrent use; the shard locks around it.
type tree struct {
	root  *inner // nil while the tree is the single leaf first
	first *leaf  // the lowest leaf; never nil, and empty only when alone
	count int
	// searches counts descents; tests pin the one-search rule with it.
	searches int
}

const (
	// fanout is the most keys a node holds. 64 keeps a 2,300-entry shard
	// two levels deep, and a 64-entry scan result to about one new leaf.
	fanout = 64
	// maxPrefix caps the key prefix a node stores once for all its keys.
	maxPrefix = 32
)

// slots are a node's keys, in key order, each with its entry: for a leaf
// the cached entry, for an inner node the first entry of the child's
// subtree. A key is held as a prefix that every key of the node shares,
// stored once, and the 8 bytes after it as a big-endian word, so that a
// search compares the prefix once and then integers; only keys whose words
// tie are compared in full, through their entries.
type slots struct {
	n     int
	plen  int
	pre   [maxPrefix]byte
	words [fanout]uint64
	ents  [fanout]*entry
}

// word is the big-endian number formed by b's first 8 bytes, zero-padded.
func word(b []byte) uint64 {
	if len(b) >= 8 {
		return binary.BigEndian.Uint64(b)
	}
	var pad [8]byte
	copy(pad[:], b)
	return binary.BigEndian.Uint64(pad[:])
}

// commonPrefix is the length of the longest common prefix of a and b.
func commonPrefix(a, b []byte) int {
	if bytes.HasPrefix(b, a) {
		return len(a)
	}
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// search returns how many keys sort before key, or with orEqual at or
// before it, and whether the node holds key.
func (s *slots) search(key []byte, orEqual bool) (int, bool) {
	if s.n == 0 {
		return 0, false
	}
	p := s.plen
	if len(key) < p || !bytes.Equal(key[:p], s.pre[:p]) {
		if bytes.Compare(key, s.pre[:p]) < 0 {
			return 0, false
		}
		return s.n, false
	}
	// The first word at or above key's, found without branches to
	// mispredict; then the keys whose words tie, compared in full.
	w, words := word(key[p:]), s.words[:s.n]
	i := 0
	for n := len(words); n > 1; n -= n / 2 {
		if words[i+n/2] < w {
			i += n / 2
		}
	}
	if words[i] < w {
		i++
	}
	for ; i < len(words) && words[i] == w; i++ {
		switch s.compare(i, key) {
		case 0:
			if orEqual {
				i++
			}
			return i, true
		case 1:
			return i, false
		}
	}
	return i, false
}

// compare compares the key of slot i, whose word is key's, with key, which
// has the node's prefix. Two keys no longer than the prefix and a word
// differ only in the zeros padding the shorter one, which sorts first, so
// their lengths decide without reading their bytes.
func (s *slots) compare(i int, key []byte) int {
	k := s.ents[i].key
	if n := s.plen + 8; len(k) <= n && len(key) <= n {
		return cmp.Compare(len(k), len(key))
	}
	return bytes.Compare(k, key)
}

// rebase shortens the shared prefix to p bytes, moving the bytes it drops
// into the front of every word.
func (s *slots) rebase(p int) {
	if p == s.plen {
		return
	}
	drop := s.pre[p:s.plen]
	head := word(drop)
	for i := range s.words[:s.n] {
		if len(drop) >= 8 {
			s.words[i] = head
		} else {
			s.words[i] = head | s.words[i]>>(8*len(drop))
		}
	}
	s.plen = p
}

// tighten lengthens the shared prefix to what the first and last keys
// share, re-reading every key.
func (s *slots) tighten() {
	if s.n == 0 {
		return
	}
	lo, hi := s.ents[0].key, s.ents[s.n-1].key
	p := min(commonPrefix(lo, hi), maxPrefix)
	if p <= s.plen {
		return
	}
	s.plen = copy(s.pre[:], lo[:p])
	for i, e := range s.ents[:s.n] {
		s.words[i] = word(e.key[p:])
	}
}

// insert makes e, under its key, the i-th slot.
func (s *slots) insert(i int, e *entry) {
	if s.n == 0 {
		s.plen = copy(s.pre[:], e.key)
	} else {
		s.rebase(commonPrefix(s.pre[:s.plen], e.key))
	}
	copy(s.words[i+1:s.n+1], s.words[i:s.n])
	copy(s.ents[i+1:s.n+1], s.ents[i:s.n])
	s.words[i], s.ents[i] = word(e.key[s.plen:]), e
	s.n++
}

// set puts e, under its key, in the i-th slot.
func (s *slots) set(i int, e *entry) {
	s.rebase(commonPrefix(s.pre[:s.plen], e.key))
	s.words[i], s.ents[i] = word(e.key[s.plen:]), e
}

// remove drops the i-th slot.
func (s *slots) remove(i int) {
	copy(s.words[i:s.n-1], s.words[i+1:s.n])
	copy(s.ents[i:s.n-1], s.ents[i+1:s.n])
	s.n--
	s.ents[s.n] = nil
}

// appendFrom appends src's slots from..to.
func (s *slots) appendFrom(src *slots, from, to int) {
	if s.n == 0 {
		s.plen = copy(s.pre[:], src.pre[:src.plen])
	} else {
		p := commonPrefix(s.pre[:s.plen], src.pre[:src.plen])
		s.rebase(p)
		src.rebase(p)
	}
	copy(s.words[s.n:], src.words[from:to])
	copy(s.ents[s.n:], src.ents[from:to])
	s.n += to - from
}

// truncate keeps the first n slots.
func (s *slots) truncate(n int) {
	clear(s.ents[n:s.n])
	s.n = n
}

type leaf struct {
	slots
	parent     *inner
	prev, next *leaf
}

// inner is an index node: slot i holds the first entry under child i (a
// search for a key below slot 0's goes to child 0 all the same). Children
// are leaves on the bottom level and inner nodes above it; the other array
// is all nil.
type inner struct {
	slots
	kids   [fanout]*inner
	leaves [fanout]*leaf
	parent *inner
}

func (n *inner) bottom() bool { return n.leaves[0] != nil }

// adopt points child i's parent link at n.
func (n *inner) adopt(i int) {
	if n.bottom() {
		n.leaves[i].parent = n
	} else {
		n.kids[i].parent = n
	}
}

func (n *inner) indexOfLeaf(l *leaf) int {
	for i, x := range n.leaves[:n.n] {
		if x == l {
			return i
		}
	}
	panic("rangecache: leaf missing from its parent")
}

func (n *inner) indexOf(c *inner) int {
	for i, x := range n.kids[:n.n] {
		if x == c {
			return i
		}
	}
	panic("rangecache: node missing from its parent")
}

// cursor is a position in the tree, in front of slot i of leaf l. Only
// seek and the tree's own edits make cursors, and any other edit of the
// tree invalidates them. i may equal the leaf's length: the position lies
// between the leaf's last entry and the next leaf's first.
type cursor struct {
	l *leaf
	i int
}

// entry returns the entry right after the position, or nil at the end.
func (c cursor) entry() *entry {
	if c.i < c.l.n {
		return c.l.ents[c.i]
	}
	if nx := c.l.next; nx != nil {
		return nx.ents[0]
	}
	return nil
}

// pred returns the entry right before the position, or nil at the start.
func (c cursor) pred() *entry {
	if c.i > 0 {
		return c.l.ents[c.i-1]
	}
	if p := c.l.prev; p != nil {
		return p.ents[p.n-1]
	}
	return nil
}

// advance moves the cursor past the entry right after it, which must exist.
func (c *cursor) advance() {
	if c.i < c.l.n {
		c.i++
	} else {
		c.l, c.i = c.l.next, 1
	}
}

func newTree() tree { return tree{first: &leaf{}} }

// begin returns the position before the first entry.
func (t *tree) begin() cursor { return cursor{t.first, 0} }

// seek descends to key and returns the position before the first entry at
// or after it, and the entry holding key if there is one.
func (t *tree) seek(key []byte) (cursor, *entry) {
	t.searches++
	l := t.first
	for n := t.root; n != nil; {
		i, _ := n.search(key, true)
		i = max(i-1, 0)
		if n.bottom() {
			l = n.leaves[i]
			break
		}
		n = n.kids[i]
	}
	i, found := l.search(key, false)
	if !found {
		return cursor{l, i}, nil
	}
	return cursor{l, i}, l.ents[i]
}

// step returns the entry right after c if it holds key, and nil if key
// belongs at c instead: the step of a walk over keys that are consecutive
// in the database the cache is a subset of. Should c have fallen behind — a
// cached key sorts before key, so the caller's keys were not consecutive —
// it searches again to keep the index sorted.
func (t *tree) step(c *cursor, key []byte) *entry {
	for {
		e := c.entry()
		if e == nil {
			return nil
		}
		switch cmp := bytes.Compare(e.key, key); {
		case cmp == 0:
			return e
		case cmp > 0:
			return nil
		}
		*c, _ = t.seek(key)
	}
}

// insert puts e at c, whose neighbours must sort around e's key, and
// returns the position right after it.
func (t *tree) insert(c cursor, e *entry) cursor {
	l, i := c.l, c.i
	var right *leaf
	if l.n == fanout {
		right = t.splitLeaf(l, i)
		if i > l.n || l.n == fanout {
			l, i = right, i-l.n
		}
	}
	l.insert(i, e)
	e.leaf = l
	t.count++
	if i == 0 && l != right {
		t.setFirstKey(l)
	}
	if right != nil {
		t.addLeaf(right)
	}
	return cursor{l, i + 1}
}

// splitAt is where a full node splits when a key is about to go to slot i:
// at i, but keeping a quarter of the keys on either side — or, appending
// (at the end of the last leaf, or of any inner node), right there, so that
// keys arriving in ascending order fill nodes instead of halving them.
func splitAt(i int, appending bool) int {
	if appending {
		return fanout
	}
	return min(max(i, fanout/4), fanout-fanout/4)
}

// splitLeaf moves the upper part of l, full, into a new leaf linked after
// it, leaving room for a key about to go to slot i. The caller registers
// the new leaf with the parent once it holds its first key.
func (t *tree) splitLeaf(l *leaf, i int) *leaf {
	at := splitAt(i, i == fanout && l.next == nil)
	r := &leaf{parent: l.parent, prev: l, next: l.next}
	if l.next != nil {
		l.next.prev = r
	}
	l.next = r
	r.appendFrom(&l.slots, at, fanout)
	for _, e := range r.ents[:r.n] {
		e.leaf = r
	}
	l.truncate(at)
	l.tighten()
	r.tighten()
	return r
}

// addLeaf registers r, a new leaf, with the parent of the leaf before it.
func (t *tree) addLeaf(r *leaf) {
	l := r.prev
	if p := l.parent; p != nil {
		t.addChild(p, p.indexOfLeaf(l)+1, r.ents[0], r, nil)
		return
	}
	root := &inner{}
	root.put(0, l.ents[0], l, nil)
	root.put(1, r.ents[0], r, nil)
	t.root = root
}

// addChild makes the leaf lf or the inner node in (whichever is not nil),
// whose first entry is first, child i > 0 of p, splitting p if it is full.
func (t *tree) addChild(p *inner, i int, first *entry, lf *leaf, in *inner) {
	if p.n < fanout {
		p.put(i, first, lf, in)
		return
	}
	at := splitAt(i, i == fanout)
	r := &inner{}
	r.appendFrom(p, at, fanout)
	p.truncate(at)
	p.tighten()
	r.tighten()
	if i > at || at == fanout {
		r.put(i-at, first, lf, in)
	} else {
		p.put(i, first, lf, in)
	}
	if gp := p.parent; gp != nil {
		t.addChild(gp, gp.indexOf(p)+1, r.ents[0], nil, r)
		return
	}
	root := &inner{}
	root.put(0, p.ents[0], nil, p)
	root.put(1, r.ents[0], nil, r)
	t.root = root
}

// put makes the leaf lf or the inner node in (whichever is not nil), whose
// first entry is first, child i of n.
func (n *inner) put(i int, first *entry, lf *leaf, in *inner) {
	n.insert(i, first)
	k := n.n
	copy(n.leaves[i+1:k], n.leaves[i:k-1])
	copy(n.kids[i+1:k], n.kids[i:k-1])
	n.leaves[i], n.kids[i] = lf, in
	n.adopt(i)
}

// drop removes child i of n.
func (n *inner) drop(i int) {
	k := n.n
	copy(n.leaves[i:k-1], n.leaves[i+1:k])
	copy(n.kids[i:k-1], n.kids[i+1:k])
	n.leaves[k-1], n.kids[k-1] = nil, nil
	n.remove(i)
}

// appendFrom moves src's children from..to to the end of n.
func (n *inner) appendFrom(src *inner, from, to int) {
	k := n.n
	n.slots.appendFrom(&src.slots, from, to)
	copy(n.leaves[k:], src.leaves[from:to])
	copy(n.kids[k:], src.kids[from:to])
	for j := k; j < n.n; j++ {
		n.adopt(j)
	}
}

// truncate keeps n's first k children.
func (n *inner) truncate(k int) {
	n.slots.truncate(k)
	clear(n.leaves[k:])
	clear(n.kids[k:])
}

// remove takes e out of the tree and returns the entry before it, or nil.
// The leaf is found from e, and the predecessor in the slot before: no
// search.
func (t *tree) remove(e *entry) *entry {
	l := e.leaf
	i := 0
	for l.ents[i] != e {
		i++
	}
	pred := cursor{l, i}.pred()
	l.slots.remove(i)
	e.leaf = nil
	t.count--
	switch p := l.parent; {
	case p == nil:
	case l.n == 0:
		t.unlink(l)
		t.dropChild(p, p.indexOfLeaf(l))
	default:
		if i == 0 {
			t.setFirstKey(l)
		}
		if l.n < fanout/4 {
			t.mergeLeaf(l)
		}
	}
	return pred
}

// setFirstKey rewrites the separators that name l's first entry, after it
// changed: l's own in its parent, and up the tree for as long as the node
// is its parent's first child.
func (t *tree) setFirstKey(l *leaf) {
	if p := l.parent; p != nil {
		t.setSeparators(p, p.indexOfLeaf(l), l.ents[0])
	}
}

// setSeparators makes first the separator of child i of p and of every
// ancestor whose first entry that is.
func (t *tree) setSeparators(p *inner, i int, first *entry) {
	for {
		p.set(i, first)
		if i > 0 || p.parent == nil {
			return
		}
		i, p = p.parent.indexOf(p), p.parent
	}
}

// unlink takes l out of the chain of leaves.
func (t *tree) unlink(l *leaf) {
	if l.prev != nil {
		l.prev.next = l.next
	} else {
		t.first = l.next
	}
	if l.next != nil {
		l.next.prev = l.prev
	}
}

// mergeLeaf folds l, running low, together with a sibling when the two fit
// in three quarters of a leaf: it keeps nodes at least about a quarter
// full however the entries leave.
func (t *tree) mergeLeaf(l *leaf) {
	p := l.parent
	i := p.indexOfLeaf(l)
	switch {
	case i > 0 && p.leaves[i-1].n+l.n <= fanout-fanout/4:
		t.absorb(p, i-1)
	case i+1 < p.n && p.leaves[i+1].n+l.n <= fanout-fanout/4:
		t.absorb(p, i)
	}
}

// absorb moves every entry of leaf i+1 of p into leaf i and drops the
// emptied leaf.
func (t *tree) absorb(p *inner, i int) {
	a, b := p.leaves[i], p.leaves[i+1]
	for _, e := range b.ents[:b.n] {
		e.leaf = a
	}
	a.appendFrom(&b.slots, 0, b.n)
	t.unlink(b)
	t.dropChild(p, i+1)
}

// dropChild removes child i of p, and then p itself if that was its last
// child; a root left with one child hands the tree to it, and an inner
// node running low merges with a sibling as leaves do.
func (t *tree) dropChild(p *inner, i int) {
	p.drop(i)
	gp := p.parent
	switch {
	case p.n == 0:
		t.dropChild(gp, gp.indexOf(p))
		return
	case i == 0 && gp != nil:
		t.setSeparators(gp, gp.indexOf(p), p.ents[0])
	}
	switch {
	case gp == nil && p.n == 1:
		t.root = p.kids[0]
		if t.root != nil {
			t.root.parent = nil
		} else {
			p.leaves[0].parent = nil
		}
	case gp != nil && p.n < fanout/4:
		j := gp.indexOf(p)
		switch {
		case j > 0 && gp.kids[j-1].n+p.n <= fanout-fanout/4:
			gp.kids[j-1].appendFrom(p, 0, p.n)
			t.dropChild(gp, j)
		case j+1 < gp.n && gp.kids[j+1].n+p.n <= fanout-fanout/4:
			p.appendFrom(gp.kids[j+1], 0, gp.kids[j+1].n)
			t.dropChild(gp, j+1)
		}
	}
}

// build makes the tree hold exactly ents, which are sorted, packing them
// into as few leaves as fanout allows, each about as full as the next.
func (t *tree) build(ents []*entry) {
	*t = tree{searches: t.searches, count: len(ents)}
	leaves := make([]*leaf, max((len(ents)+fanout-1)/fanout, 1))
	for j := range leaves {
		l := &leaf{}
		for _, e := range ents[len(ents)*j/len(leaves) : len(ents)*(j+1)/len(leaves)] {
			l.insert(l.n, e)
			e.leaf = l
		}
		if j > 0 {
			l.prev, leaves[j-1].next = leaves[j-1], l
		}
		leaves[j] = l
	}
	t.first = leaves[0]
	if len(leaves) == 1 {
		return
	}
	level := make([]*inner, (len(leaves)+fanout-1)/fanout)
	for j := range level {
		n := &inner{}
		for _, l := range leaves[len(leaves)*j/len(level) : len(leaves)*(j+1)/len(level)] {
			n.put(n.n, l.ents[0], l, nil)
		}
		level[j] = n
	}
	for len(level) > 1 {
		up := make([]*inner, (len(level)+fanout-1)/fanout)
		for j := range up {
			n := &inner{}
			for _, c := range level[len(level)*j/len(up) : len(level)*(j+1)/len(up)] {
				n.put(n.n, c.ents[0], nil, c)
			}
			up[j] = n
		}
		level = up
	}
	t.root = level[0]
}

// appendTo appends every entry, in key order, to dst.
func (t *tree) appendTo(dst []*entry) []*entry {
	for l := t.first; l != nil; l = l.next {
		dst = append(dst, l.ents[:l.n]...)
	}
	return dst
}
