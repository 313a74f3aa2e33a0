package workload

import (
	"fmt"
	"math"
	"testing"
)

func TestZipfianSkewConcentratesMass(t *testing.T) {
	lowSkew := NewZipfian(10_000, 0.5)
	highSkew := NewZipfian(10_000, 0.99)
	countTop := func(z *Zipfian) int {
		gen := NewGenerator(Config{NumKeys: 10_000, Seed: 3})
		top := 0
		for i := 0; i < 20_000; i++ {
			if z.Next(gen.rng.Float64()) < 100 {
				top++
			}
		}
		return top
	}
	low, high := countTop(lowSkew), countTop(highSkew)
	if high <= low {
		t.Fatalf("higher skew should concentrate on hot ranks: low=%d high=%d", low, high)
	}
}

func TestZipfianRange(t *testing.T) {
	z := NewZipfian(100, 0.9)
	gen := NewGenerator(Config{NumKeys: 100, Seed: 5})
	for i := 0; i < 10_000; i++ {
		r := z.Next(gen.rng.Float64())
		if r >= 100 {
			t.Fatalf("rank %d out of range", r)
		}
	}
}

func TestZipfianHighTheta(t *testing.T) {
	// theta >= 1 uses the exact CDF table; Figure 9 sweeps up to 1.2.
	z := NewZipfian(1000, 1.2)
	gen := NewGenerator(Config{NumKeys: 1000, Seed: 9})
	top := 0
	for i := 0; i < 10_000; i++ {
		r := z.Next(gen.rng.Float64())
		if r >= 1000 {
			t.Fatalf("rank %d out of range", r)
		}
		if r < 10 {
			top++
		}
	}
	// At theta=1.2 the top-10 ranks carry well over half the mass.
	if top < 5_000 {
		t.Fatalf("top-10 mass = %d/10000, want heavy concentration", top)
	}
	// Distinct thetas above 1 must differ (no silent clamping).
	z2 := NewZipfian(1000, 1.1)
	diff := false
	for _, u := range []float64{0.3, 0.6, 0.9, 0.97, 0.999} {
		if z.Next(u) != z2.Next(u) {
			diff = true
		}
	}
	if !diff {
		t.Fatal("theta 1.1 and 1.2 behave identically (clamped?)")
	}
	z0 := NewZipfian(0, 0.9)
	if z0.N() != 1 {
		t.Fatal("zero-size domain not clamped")
	}
}

func TestKeyFormat(t *testing.T) {
	k := Key(42)
	if len(k) != 24 {
		t.Fatalf("key length = %d, want 24 (paper's key size)", len(k))
	}
	if string(Key(1)) >= string(Key(2)) || string(Key(9)) >= string(Key(10)) {
		t.Fatal("keys do not sort numerically")
	}
}

// TestKeyMatchesSprintf pins Key's bytes to the fmt.Sprintf("user%020d")
// form it replaced: every stored key, and so every benchmark's operations,
// stay byte-identical.
func TestKeyMatchesSprintf(t *testing.T) {
	for _, i := range []int{0, 9, 10, 199_999, 1 << 40, math.MaxInt64} {
		if got, want := string(Key(i)), fmt.Sprintf("user%020d", i); got != want {
			t.Errorf("Key(%d) = %q, want %q", i, got, want)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := NewGenerator(Config{NumKeys: 1000, Seed: 7})
	b := NewGenerator(Config{NumKeys: 1000, Seed: 7})
	for i := 0; i < 1000; i++ {
		opA := a.Next(MixBalanced)
		opB := b.Next(MixBalanced)
		if opA.Kind != opB.Kind || string(opA.Key) != string(opB.Key) {
			t.Fatalf("divergence at op %d", i)
		}
	}
}

func TestMixProportions(t *testing.T) {
	g := NewGenerator(Config{NumKeys: 1000, Seed: 11})
	mix := Mix{GetPct: 50, ShortScanPct: 20, LongScanPct: 10, WritePct: 20}
	var gets, shorts, longs, writes int
	const n = 50_000
	for i := 0; i < n; i++ {
		op := g.Next(mix)
		switch {
		case op.Kind == OpGet:
			gets++
		case op.Kind == OpScan && op.ScanLen == ShortScanLen:
			shorts++
		case op.Kind == OpScan && op.ScanLen == LongScanLen:
			longs++
		case op.Kind == OpPut:
			writes++
		}
	}
	check := func(name string, got, wantPct int) {
		t.Helper()
		gotPct := float64(got) / n * 100
		if math.Abs(gotPct-float64(wantPct)) > 2 {
			t.Fatalf("%s = %.1f%%, want ≈%d%%", name, gotPct, wantPct)
		}
	}
	check("gets", gets, 50)
	check("short scans", shorts, 20)
	check("long scans", longs, 10)
	check("writes", writes, 20)
}

func TestWritesCarryValues(t *testing.T) {
	g := NewGenerator(Config{NumKeys: 100, ValueSize: 64, Seed: 13})
	for i := 0; i < 1000; i++ {
		op := g.Next(Mix{WritePct: 100})
		if op.Kind != OpPut || len(op.Value) != 64 {
			t.Fatalf("write op = %+v", op)
		}
	}
	// Consecutive writes to the same key differ (updates, not no-ops).
	v1 := g.Value(5)
	v2 := g.Value(5)
	if string(v1) == string(v2) {
		t.Fatal("repeated values identical")
	}
}

func TestDynamicPhasesMatchTable3(t *testing.T) {
	phases := DynamicPhases()
	if len(phases) != 6 {
		t.Fatalf("phases = %d", len(phases))
	}
	want := map[string][4]int{
		"A": {1, 1, 97, 1},
		"B": {1, 49, 49, 1},
		"C": {49, 49, 1, 1},
		"D": {25, 25, 1, 49},
		"E": {1, 49, 1, 49},
		"F": {1, 12, 12, 75},
	}
	for _, p := range phases {
		w := want[p.Name]
		got := [4]int{p.Mix.GetPct, p.Mix.ShortScanPct, p.Mix.LongScanPct, p.Mix.WritePct}
		if got != w {
			t.Fatalf("phase %s = %v, want %v (Table 3)", p.Name, got, w)
		}
	}
}

func TestStaticMixesSumTo100(t *testing.T) {
	for _, m := range []Mix{MixPointLookup, MixShortScan, MixBalanced, MixLongScan} {
		if sum := m.GetPct + m.ShortScanPct + m.LongScanPct + m.WritePct; sum != 100 {
			t.Fatalf("mix %+v sums to %d", m, sum)
		}
	}
	for _, p := range DynamicPhases() {
		m := p.Mix
		if sum := m.GetPct + m.ShortScanPct + m.LongScanPct + m.WritePct; sum != 100 {
			t.Fatalf("phase %s sums to %d", p.Name, sum)
		}
	}
}

func TestScrambleStableAndInRange(t *testing.T) {
	g := NewGenerator(Config{NumKeys: 500, Seed: 1})
	for rank := uint64(0); rank < 100; rank++ {
		a := g.scramble(rank)
		b := g.scramble(rank)
		if a != b {
			t.Fatal("scramble not deterministic")
		}
		if a < 0 || a >= 500 {
			t.Fatalf("scramble out of range: %d", a)
		}
	}
}

// keySink keeps Key's result on the heap, as a caller that stores it does.
var keySink []byte

// TestKeyAllocatesOnce: a key costs the one allocation of the slice it
// returns, as loaders and generators call it for every operation.
func TestKeyAllocatesOnce(t *testing.T) {
	i := 0
	if allocs := testing.AllocsPerRun(100, func() { i++; keySink = Key(i * 7919) }); allocs != 1 {
		t.Fatalf("Key allocates %v times, want 1", allocs)
	}
}
