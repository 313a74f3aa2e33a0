//go:build !race

// The heap-delta measurement below is meaningless under the race detector,
// which inflates every allocation with shadow memory.

package memtable

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"adcache/internal/keys"
)

// TestApproximateSizeTracksHeap pins the memtable's physical-byte
// accounting against the Go heap: after inserting many entries, the sum of
// entryBytes charges must land within ±30% of the measured heap growth.
// The engine's flush threshold (lsm.Options.MemTableSize) is counted in
// these bytes, so a systematic over- or under-count here would seal
// memtables at a heap size other than the configured one.
func TestApproximateSizeTracksHeap(t *testing.T) {
	const n = 20000
	rng := rand.New(rand.NewSource(42))

	// Source material is allocated before the baseline measurement and
	// stays live throughout, so it cancels out of the heap delta. The
	// measured region contains only what the memtable holds: its arena of
	// nodes, next arrays and key/value copies.
	userKeys := make([][]byte, n)
	vals := make([][]byte, n)
	for i := range userKeys {
		userKeys[i] = []byte(fmt.Sprintf("user%012d", rng.Intn(10*n)))
		vals[i] = make([]byte, 20+rng.Intn(200))
	}

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	m := New(1)
	for i := range userKeys {
		m.Set(userKeys[i], uint64(i+1), keys.KindSet, vals[i])
	}

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	measured := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	charged := m.ApproximateSize()
	if measured <= 0 {
		t.Fatalf("heap delta not measurable: %d", measured)
	}
	ratio := float64(charged) / float64(measured)
	t.Logf("charged=%d measured=%d ratio=%.3f (entries=%d)", charged, measured, ratio, m.Count())
	if ratio < 0.70 || ratio > 1.30 {
		t.Fatalf("ApproximateSize %d vs heap growth %d: ratio %.3f outside [0.70, 1.30]",
			charged, measured, ratio)
	}
	runtime.KeepAlive(m)
	runtime.KeepAlive(userKeys)
	runtime.KeepAlive(vals)
}
