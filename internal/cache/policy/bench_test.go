package policy

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchWorkload exercises a policy with a zipf-ish access stream over a
// bounded cache, the dominant cost profile inside the range cache.
func benchWorkload(b *testing.B, name string) {
	const capacity = 1024
	p := newByKey(New(name, capacity))
	rng := rand.New(rand.NewSource(1))
	keys := make([]string, 16_384)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%08d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Roughly zipf: low indices far more often.
		idx := int(float64(len(keys)-1) * rng.Float64() * rng.Float64() * rng.Float64())
		key := keys[idx]
		if _, ok := p.resident[key]; ok {
			p.OnAccess(key)
			continue
		}
		p.OnMiss(key)
		if len(p.resident) >= capacity {
			p.Evict()
		}
		p.OnInsert(key)
	}
}

func BenchmarkPolicyLRU(b *testing.B)     { benchWorkload(b, "lru") }
func BenchmarkPolicyLeCaR(b *testing.B)   { benchWorkload(b, "lecar") }
func BenchmarkPolicyCacheus(b *testing.B) { benchWorkload(b, "cacheus") }
