package policy

import (
	"fmt"
	"math/rand"
	"testing"
)

// learned exposes what a policy has learned besides its victim order, for
// exact comparison with the reference: LeCaR's and Cacheus's expert weights.
func learned(p any) [2]float64 {
	switch p := p.(type) {
	case *LeCaR:
		a, b := p.Weights()
		return [2]float64{a, b}
	case *refLeCaR:
		a, b := p.Weights()
		return [2]float64{a, b}
	case *Cacheus:
		a, b := p.Weights()
		return [2]float64{a, b}
	case *refCacheus:
		a, b := p.Weights()
		return [2]float64{a, b}
	}
	return [2]float64{}
}

// TestHandlePoliciesMatchReference replays one random stream of inserts,
// hits, misses, removals and evictions through each handle-based policy and
// the string-keyed implementation it replaced, and requires the same victim
// at every eviction and bit-identical learned state after every step.
func TestHandlePoliciesMatchReference(t *testing.T) {
	const (
		capacity = 32
		universe = 128
		ops      = 100_000
	)
	refs := map[string]func() refPolicy{
		"lru":     func() refPolicy { return newRefLRU() },
		"lfu":     func() refPolicy { return newRefLFU() },
		"lecar":   func() refPolicy { return newRefLeCaR(capacity) },
		"cacheus": func() refPolicy { return newRefCacheus(capacity) },
	}
	for name, newRef := range refs {
		t.Run(name, func(t *testing.T) {
			ref, got := newRef(), newByKey(newTestPolicy(name, capacity))
			rng := rand.New(rand.NewSource(42))
			evictions := 0
			evict := func(step int) {
				want, wantOK := ref.Evict()
				have, haveOK := got.Evict()
				if want != have || wantOK != haveOK {
					t.Fatalf("step %d: victim %q (ok=%v), reference evicts %q (ok=%v)", step, have, haveOK, want, wantOK)
				}
				evictions++
			}
			for step := 0; step < ops; step++ {
				// Skewed keys so frequencies, ghosts and reuse all matter.
				key := fmt.Sprintf("k%03d", int(float64(universe)*rng.Float64()*rng.Float64()))
				_, resident := got.resident[key]
				switch op := rng.Intn(100); {
				case op < 70: // a lookup, admitted on a miss
					if resident {
						ref.OnAccess(key)
						got.OnAccess(key)
						break
					}
					ref.OnMiss(key)
					got.OnMiss(key)
					if len(got.resident) >= capacity {
						evict(step)
					}
					ref.OnInsert(key)
					got.OnInsert(key)
				case op < 80: // a lookup that is not admitted
					if !resident {
						ref.OnMiss(key)
						got.OnMiss(key)
					}
				case op < 90: // invalidation
					if resident {
						ref.OnRemove(key)
						got.OnRemove(key)
					}
				default: // capacity shrink
					evict(step)
				}
				if ref.Len() != got.Len() || got.Len() != len(got.resident) {
					t.Fatalf("step %d: Len %d, reference %d, resident %d", step, got.Len(), ref.Len(), len(got.resident))
				}
				if want, have := learned(ref), learned(got.Policy); want != have {
					t.Fatalf("step %d: learned state %v, reference %v", step, have, want)
				}
			}
			if evictions < ops/20 {
				t.Fatalf("only %d evictions compared", evictions)
			}
			if fresh := learned(newTestPolicy(name, capacity)); name != "lru" && name != "lfu" && learned(got.Policy) == fresh {
				t.Fatalf("the stream taught %s nothing: learned state still %v", name, fresh)
			}
			t.Logf("%d evictions, learned state %v", evictions, learned(got.Policy))
		})
	}
}
