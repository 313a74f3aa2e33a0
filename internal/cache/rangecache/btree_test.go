package rangecache

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// checkTree verifies t's structure against want, the keys it should hold
// in order: the leaf chain, every entry's leaf link, node sizes, parent
// links, every separator its subtree's first entry, every node's prefix
// and words, and a search for each key and for the gap below it.
func checkTree(t *testing.T, tr *tree, want []string, what string) {
	t.Helper()
	got := tr.appendTo(nil)
	if len(got) != len(want) || tr.count != len(want) {
		t.Fatalf("%s: tree walks %d entries, counts %d, want %d", what, len(got), tr.count, len(want))
	}
	for i, e := range got {
		if string(e.key) != want[i] {
			t.Fatalf("%s: entry %d is %q, want %q", what, i, e.key, want[i])
		}
	}
	var prev *leaf
	for l := tr.first; l != nil; prev, l = l, l.next {
		if l.prev != prev {
			t.Fatalf("%s: leaf chain broken", what)
		}
		if l.n == 0 && (l != tr.first || l.next != nil) {
			t.Fatalf("%s: empty leaf in a tree of %d", what, tr.count)
		}
		checkSlots(t, &l.slots, what)
		for _, e := range l.ents[:l.n] {
			if e.leaf != l {
				t.Fatalf("%s: %q is linked to another leaf", what, e.key)
			}
		}
	}
	if tr.root == nil {
		if tr.first.next != nil || tr.first.parent != nil {
			t.Fatalf("%s: rootless tree has more than one leaf", what)
		}
	} else {
		if tr.root.parent != nil {
			t.Fatalf("%s: root has a parent", what)
		}
		checkInner(t, tr.root, what)
	}
	for i, key := range want {
		c, _ := tr.seek([]byte(key))
		if e := c.entry(); e == nil || string(e.key) != key {
			t.Fatalf("%s: seek(%q) lands on %v", what, key, e)
		}
		gap := []byte(key[:len(key)-1])
		if i > 0 && string(gap) <= want[i-1] {
			continue // no gap below key
		}
		c, _ = tr.seek(gap)
		if e := c.entry(); e == nil || string(e.key) != key {
			t.Fatalf("%s: seek(%q) lands on %v, want %q", what, gap, e, key)
		}
		if p := c.pred(); (i == 0) != (p == nil) || (p != nil && string(p.key) != want[i-1]) {
			t.Fatalf("%s: seek(%q) has predecessor %v", what, gap, p)
		}
	}
}

// checkInner verifies n's subtree and returns its first key: every
// separator is its child's first entry.
func checkInner(t *testing.T, n *inner, what string) []byte {
	t.Helper()
	if n.n == 0 || (n.parent == nil && n.n < 2) {
		t.Fatalf("%s: inner node with %d children", what, n.n)
	}
	checkSlots(t, &n.slots, what)
	for i := 0; i < n.n; i++ {
		var first *entry
		if n.bottom() {
			l := n.leaves[i]
			if l == nil || l.parent != n || n.kids[i] != nil || l.n == 0 {
				t.Fatalf("%s: leaf %d of a bottom node is missing, empty or has another parent", what, i)
			}
			first = l.ents[0]
		} else {
			c := n.kids[i]
			if c == nil || c.parent != n || n.leaves[i] != nil {
				t.Fatalf("%s: child %d is missing or has another parent", what, i)
			}
			checkInner(t, c, what)
			first = c.ents[0]
		}
		if n.ents[i] != first {
			t.Fatalf("%s: separator %d is %q, its subtree starts at %q", what, i, n.ents[i].key, first.key)
		}
	}
	return n.ents[0].key
}

// checkSlots verifies that every key of a node starts with its prefix, has
// the 8 bytes after it as its word, and sorts after the one before.
func checkSlots(t *testing.T, s *slots, what string) {
	t.Helper()
	for i, e := range s.ents[:s.n] {
		if !bytes.HasPrefix(e.key, s.pre[:s.plen]) || s.words[i] != word(e.key[s.plen:]) {
			t.Fatalf("%s: slot %d holds %q under prefix %q and word %x", what, i, e.key, s.pre[:s.plen], s.words[i])
		}
		if i > 0 && bytes.Compare(s.ents[i-1].key, e.key) >= 0 {
			t.Fatalf("%s: slot %d holds %q after %q", what, i, e.key, s.ents[i-1].key)
		}
	}
	for _, e := range s.ents[s.n:] {
		if e != nil {
			t.Fatalf("%s: a free slot still points at %q", what, e.key)
		}
	}
}

// TestTreeAgainstSortedSet drives the index through the edits the cache
// makes — runs of consecutive keys put in through one cursor, in ascending,
// descending and random places, single puts, and removals of single
// entries, of runs and of most of the tree, which make it split, merge and
// change height — and checks it against a sorted set after each phase.
func TestTreeAgainstSortedSet(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := newTree()
	set := map[string]*entry{}
	key := func(i int) string { return fmt.Sprintf("k%07d0", i) } // the trailing 0 leaves a gap below every key
	sorted := func() []string {
		out := make([]string, 0, len(set))
		for k := range set {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	// putRun puts keys from..from+n the way an admission does: one search,
	// then a step per key.
	putRun := func(from, n int) {
		c, _ := tr.seek([]byte(key(from)))
		for i := from; i < from+n; i++ {
			kb := []byte(key(i))
			if tr.step(&c, kb) != nil {
				c.advance()
				continue
			}
			e := &entry{key: kb}
			set[key(i)] = e
			c = tr.insert(c, e)
		}
	}
	remove := func(k string) {
		e := set[k]
		delete(set, k)
		c, _ := tr.seek(e.key)
		wantPred := c.pred()
		if p := tr.remove(e); p != wantPred {
			t.Fatalf("remove(%q) returned predecessor %v, want %v", k, p, wantPred)
		}
	}
	phases := []struct {
		what string
		run  func()
	}{
		{"ascending runs", func() {
			for at := 0; at < 20_000; at += 64 {
				putRun(at, 40)
			}
		}},
		{"runs into the gaps", func() {
			for at := 40; at < 20_000; at += 64 {
				putRun(at, 24)
			}
		}},
		{"descending points", func() {
			for i := 30_000; i > 25_000; i -= 3 {
				putRun(i, 1)
			}
		}},
		{"random points and runs", func() {
			for i := 0; i < 3_000; i++ {
				putRun(rng.Intn(40_000), 1+rng.Intn(3)*rng.Intn(40))
			}
		}},
		{"random removals", func() {
			keys := sorted()
			for _, i := range rng.Perm(len(keys))[:len(keys)/2] {
				remove(keys[i])
			}
		}},
		{"removal of runs", func() {
			keys := sorted()
			for at := 0; at < len(keys); at += 300 {
				for _, k := range keys[at:min(at+200, len(keys))] {
					remove(k)
				}
			}
		}},
		{"runs below the lowest key of a rebuilt tree", func() {
			var ents []*entry
			for _, k := range sorted() {
				if k < key(12_000) {
					remove(k)
				} else {
					ents = append(ents, set[k])
				}
			}
			tr.build(ents)
			for at := 11_950; at >= 0; at -= 50 {
				putRun(at, 30)
			}
		}},
		{"rebuild", func() {
			ents := make([]*entry, 0, len(set))
			for _, k := range sorted() {
				ents = append(ents, set[k])
			}
			tr.build(ents)
		}},
		{"random points after the rebuild", func() {
			for i := 0; i < 2_000; i++ {
				putRun(rng.Intn(40_000), 1)
			}
		}},
		{"removal of almost everything", func() {
			keys := sorted()
			for _, i := range rng.Perm(len(keys))[:len(keys)-3] {
				remove(keys[i])
			}
		}},
		{"removal of the rest", func() {
			for _, k := range sorted() {
				remove(k)
			}
		}},
		{"ascending runs into an emptied tree", func() {
			for at := 0; at < 5_000; at += 100 {
				putRun(at, 70)
			}
		}},
	}
	for _, ph := range phases {
		ph.run()
		checkTree(t, &tr, sorted(), ph.what)
	}
}

// TestTreeUnderCacheTraffic runs the cache's own operations — writes,
// admissions of scan results, splits and resizes — on a sharded cache of a
// thousand keys and checks every shard's index after each step, along
// with every scan hit.
func TestTreeUnderCacheTraffic(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := newCache(Options{Capacity: 1 << 20}, 4)
		c.InsertScan(k(0), kvs(0, 1000))
		forceSplit(c)
		for step := 0; step < 2000; step++ {
			what := ""
			switch op := rng.Intn(10); {
			case op < 3:
				idx := rng.Intn(1000)
				c.Put(k(idx), v(idx))
				what = fmt.Sprintf("Put(%d)", idx)
			case op < 6:
				from := rng.Intn(1000)
				n := min(1+rng.Intn(64), 1000-from)
				c.InsertScan(k(from), kvs(from, n))
				what = fmt.Sprintf("InsertScan(%d, %d)", from, n)
			case op == 6 && rng.Intn(20) == 0:
				forceSplit(c)
				c.Resize(int64(200+rng.Intn(800)) * 100)
				what = "split and resize"
			default:
				idx, n := rng.Intn(1000), 1+rng.Intn(32)
				res, _ := c.Scan(k(idx), n)
				for j, kv := range res {
					if !bytes.Equal(kv.Key, k(idx+j)) {
						t.Fatalf("seed %d step %d: Scan(%d, %d)[%d] = %q", seed, step, idx, n, j, kv.Key)
					}
				}
				what = "Scan"
			}
			if step%10 != 0 {
				continue
			}
			for si, s := range c.shards {
				var want []string
				for _, e := range s.tree.appendTo(nil) {
					want = append(want, string(e.key))
				}
				checkTree(t, &s.tree, want, fmt.Sprintf("seed %d step %d shard %d after %s", seed, step, si, what))
			}
		}
	}
}

// TestTreeFillsLeavesInOrder pins what keeps the index small: keys put in
// in ascending order fill whole leaves, and runs of consecutive keys put
// into the gaps between them fill leaves to more than 60 % (a midpoint
// split leaves them about half full).
func TestTreeFillsLeavesInOrder(t *testing.T) {
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%07d", i)) }
	tr := newTree()
	c := tr.begin()
	for i := 0; i < 100*fanout; i++ {
		c = tr.insert(c, &entry{key: key(1000 * i)})
	}
	if leaves := countLeaves(&tr); leaves != 100 {
		t.Errorf("%d ascending keys fill %d leaves, want 100", tr.count, leaves)
	}
	rng := rand.New(rand.NewSource(1))
	for _, gap := range rng.Perm(100 * fanout)[:200] {
		c, _ := tr.seek(key(1000*gap + 1))
		for i := 1; i <= fanout; i++ {
			c = tr.insert(c, &entry{key: key(1000*gap + i)})
		}
	}
	if leaves := countLeaves(&tr); leaves*fanout*6/10 > tr.count {
		t.Errorf("%d keys in %d leaves: less than 60 %% full on average", tr.count, leaves)
	} else {
		t.Logf("%d keys in %d leaves: %.0f%% full", tr.count, leaves, 100*float64(tr.count)/float64(leaves*fanout))
	}
}

func countLeaves(tr *tree) int {
	n := 0
	for l := tr.first; l != nil; l = l.next {
		n++
	}
	return n
}
