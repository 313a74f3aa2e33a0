package bloom

import (
	"fmt"
	"testing"
	"testing/quick"
)

func keys(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("key%08d", i))
	}
	return out
}

func TestNoFalseNegatives(t *testing.T) {
	ks := keys(10_000)
	f := build(ks, 10)
	for _, k := range ks {
		if !f.MayContain(k) {
			t.Fatalf("false negative for %q", k)
		}
	}
}

func TestFalsePositiveRateNear1Percent(t *testing.T) {
	ks := keys(10_000)
	f := build(ks, 10)
	fp := 0
	const probes = 20_000
	for i := 0; i < probes; i++ {
		if f.MayContain([]byte(fmt.Sprintf("absent%08d", i))) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > 0.03 {
		t.Fatalf("FPR = %.4f, want ≈0.01 at 10 bits/key", rate)
	}
}

func TestTheoreticalFPR(t *testing.T) {
	if r := FalsePositiveRate(10); r < 0.005 || r > 0.02 {
		t.Fatalf("theoretical FPR(10) = %f", r)
	}
	if r := FalsePositiveRate(0); r != 1 {
		t.Fatalf("FPR(0) = %f, want 1", r)
	}
	if FalsePositiveRate(2) <= FalsePositiveRate(10) {
		t.Fatal("FPR should fall with more bits per key")
	}
}

func TestEmptyAndTinyFilters(t *testing.T) {
	f := build(nil, 10)
	if f.MayContain([]byte("anything")) {
		t.Fatal("empty filter claimed containment")
	}
	var zero Filter
	if zero.MayContain([]byte("k")) {
		t.Fatal("zero-length filter claimed containment")
	}
	one := build([][]byte{[]byte("solo")}, 10)
	if !one.MayContain([]byte("solo")) {
		t.Fatal("single-key filter lost its key")
	}
}

func TestCorruptProbeCountFailsOpen(t *testing.T) {
	f := build(keys(10), 10)
	f[len(f)-1] = 200 // invalid probe count
	if !f.MayContain([]byte("key00000001")) {
		t.Fatal("corrupt filter must fail open (no false negatives)")
	}
}

func TestNumProbes(t *testing.T) {
	if k := NumProbes(10); k < 5 || k > 8 {
		t.Fatalf("NumProbes(10) = %d", k)
	}
	if k := NumProbes(1); k != 1 {
		t.Fatalf("NumProbes(1) = %d", k)
	}
	if k := NumProbes(1000); k != 30 {
		t.Fatalf("NumProbes(1000) = %d, want cap 30", k)
	}
}

// TestBuildContainsProperty: any built set has no false negatives,
// regardless of key contents.
func TestBuildContainsProperty(t *testing.T) {
	f := func(ks [][]byte) bool {
		if len(ks) == 0 {
			return true
		}
		filter := build(ks, 10)
		for _, k := range ks {
			if !filter.MayContain(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHash64Spreads(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		h := Hash64([]byte(fmt.Sprintf("k%d", i)))
		if seen[h] {
			t.Fatalf("collision at %d", i)
		}
		seen[h] = true
	}
}

// build is Build over the keys themselves.
func build(ks [][]byte, bitsPerKey int) Filter {
	hashes := make([]uint64, len(ks))
	for i, k := range ks {
		hashes[i] = Hash64(k)
	}
	return Build(hashes, bitsPerKey)
}
