package policy

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLRUOrder(t *testing.T) {
	p := newByKey(NewLRU())
	p.OnInsert("a")
	p.OnInsert("b")
	p.OnInsert("c")
	p.OnAccess("a") // order: a, c, b (most→least recent)
	if v, _ := p.Evict(); v != "b" {
		t.Fatalf("first victim = %q, want b", v)
	}
	if v, _ := p.Evict(); v != "c" {
		t.Fatalf("second victim = %q, want c", v)
	}
	if v, _ := p.Evict(); v != "a" {
		t.Fatalf("third victim = %q, want a", v)
	}
	if _, ok := p.Evict(); ok {
		t.Fatal("Evict on empty policy returned ok")
	}
}

func TestLRUReinsertRefreshes(t *testing.T) {
	p := newByKey(NewLRU())
	p.OnInsert("a")
	p.OnInsert("b")
	p.OnInsert("a") // refresh
	if v, _ := p.Evict(); v != "b" {
		t.Fatalf("victim = %q, want b", v)
	}
}

func TestLRURemove(t *testing.T) {
	p := newByKey(NewLRU())
	p.OnInsert("a")
	p.OnInsert("b")
	p.OnRemove("b")
	if p.Len() != 1 {
		t.Fatalf("Len = %d, want 1", p.Len())
	}
	if v, _ := p.Evict(); v != "a" {
		t.Fatalf("victim = %q, want a", v)
	}
}

func TestLFUEvictsLeastFrequent(t *testing.T) {
	p := newByKey(NewLFU())
	p.OnInsert("hot")
	p.OnInsert("cold")
	for i := 0; i < 5; i++ {
		p.OnAccess("hot")
	}
	if v, _ := p.Evict(); v != "cold" {
		t.Fatalf("victim = %q, want cold", v)
	}
	if v, _ := p.Evict(); v != "hot" {
		t.Fatalf("victim = %q, want hot", v)
	}
}

func TestLFUTieBreaksLRU(t *testing.T) {
	p := newByKey(NewLFU())
	p.OnInsert("a")
	p.OnInsert("b")
	p.OnInsert("c")
	p.OnAccess("a") // a:2, b:1, c:1; oldest freq-1 is b
	if v, _ := p.Evict(); v != "b" {
		t.Fatalf("victim = %q, want b", v)
	}
}

func TestLFUFreqTracking(t *testing.T) {
	p := newByKey(NewLFU())
	p.OnInsert("k")
	p.OnAccess("k")
	p.OnAccess("k")
	lfu, h := p.Policy.(*LFU), &p.resident["k"].Handle
	if f := lfu.Freq(h); f != 3 {
		t.Fatalf("Freq = %d, want 3", f)
	}
	lfu.SetFreq(h, 7)
	if f := lfu.Freq(h); f != 7 {
		t.Fatalf("Freq after SetFreq = %d, want 7", f)
	}
}

func TestLeCaRLearnsAgainstLRUOnScanWorkload(t *testing.T) {
	// A hot set plus a one-shot scan: LRU would evict the hot keys; LeCaR
	// should shift weight toward LFU after seeing hot keys in LRU's ghost
	// history.
	const capacity = 32
	lecar := NewLeCaR(capacity)
	p := newByKey(lecar)
	cached := map[string]bool{}
	access := func(key string) {
		if cached[key] {
			p.OnAccess(key)
			return
		}
		p.OnMiss(key)
		if len(cached) >= capacity {
			if v, ok := p.Evict(); ok {
				delete(cached, v)
			}
		}
		p.OnInsert(key)
		cached[key] = true
	}
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 200; round++ {
		// Hot keys (frequent).
		for i := 0; i < 16; i++ {
			access(fmt.Sprintf("hot%02d", rng.Intn(16)))
		}
		// Scan burst (one-shot cold keys).
		for i := 0; i < 16; i++ {
			access(fmt.Sprintf("cold%06d", round*16+i))
		}
	}
	wLRU, wLFU := lecar.Weights()
	if wLFU <= wLRU {
		t.Fatalf("LeCaR weights (lru=%.3f, lfu=%.3f): expected LFU to dominate under scan pollution", wLRU, wLFU)
	}
}

func TestLeCaRWeightsNormalized(t *testing.T) {
	lecar := NewLeCaR(8)
	p := newByKey(lecar)
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("k%d", i%12)
		p.OnMiss(k)
		p.OnInsert(k)
		if p.Len() > 8 {
			p.Evict()
		}
	}
	wLRU, wLFU := lecar.Weights()
	if sum := wLRU + wLFU; sum < 0.999 || sum > 1.001 {
		t.Fatalf("weights sum to %f, want 1", sum)
	}
}

func TestCacheusScanResistance(t *testing.T) {
	// SR-LRU should keep reused keys through a long one-shot scan better
	// than plain LRU would.
	const capacity = 32
	p := newByKey(NewCacheus(capacity))
	cached := map[string]bool{}
	hits := 0
	access := func(key string) {
		if cached[key] {
			p.OnAccess(key)
			hits++
			return
		}
		p.OnMiss(key)
		if len(cached) >= capacity {
			if v, ok := p.Evict(); ok {
				delete(cached, v)
			}
		}
		p.OnInsert(key)
		cached[key] = true
	}
	// Establish a reused working set.
	for round := 0; round < 10; round++ {
		for i := 0; i < 16; i++ {
			access(fmt.Sprintf("hot%02d", i))
		}
	}
	// One-shot scan of 200 cold keys.
	for i := 0; i < 200; i++ {
		access(fmt.Sprintf("scan%06d", i))
	}
	// The hot set should still be partially resident.
	survived := 0
	for i := 0; i < 16; i++ {
		if cached[fmt.Sprintf("hot%02d", i)] {
			survived++
		}
	}
	if survived == 0 {
		t.Fatal("Cacheus lost the entire reused set to a scan")
	}
}

func TestPolicyFactory(t *testing.T) {
	for _, name := range []string{"lru", "lecar", "cacheus", "bogus"} {
		p := newByKey(New(name, 16))
		p.OnInsert("x")
		if p.Len() != 1 {
			t.Fatalf("%s: Len = %d, want 1", name, p.Len())
		}
		if v, ok := p.Evict(); !ok || v != "x" {
			t.Fatalf("%s: Evict = %q, %v", name, v, ok)
		}
	}
}

// newTestPolicy builds a policy like New, and also "lfu": the LFU expert
// inside LeCaR and Cacheus, tested on its own.
func newTestPolicy(name string, capacityHint int) Policy {
	if name == "lfu" {
		return NewLFU()
	}
	return New(name, capacityHint)
}

// TestPolicyInvariants property-tests every policy: after any operation
// sequence, Len matches the live-key set and eviction drains exactly the
// inserted keys.
func TestPolicyInvariants(t *testing.T) {
	for _, name := range []string{"lru", "lfu", "lecar", "cacheus"} {
		name := name
		t.Run(name, func(t *testing.T) {
			f := func(ops []uint8) bool {
				p := newByKey(newTestPolicy(name, 8))
				live := map[string]bool{}
				for _, op := range ops {
					key := fmt.Sprintf("k%d", op%16)
					switch op % 4 {
					case 0:
						p.OnInsert(key)
						live[key] = true
					case 1:
						if live[key] {
							p.OnAccess(key)
						} else {
							p.OnMiss(key)
						}
					case 2:
						p.OnRemove(key)
						delete(live, key)
					case 3:
						if v, ok := p.Evict(); ok {
							if !live[v] {
								return false // evicted a key not inserted
							}
							delete(live, v)
						} else if len(live) != 0 {
							return false // refused to evict though non-empty
						}
					}
					if p.Len() != len(live) {
						return false
					}
				}
				// Drain.
				for range live {
					if _, ok := p.Evict(); !ok {
						return false
					}
				}
				_, ok := p.Evict()
				return !ok && p.Len() == 0
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
