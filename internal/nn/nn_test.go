package nn

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"adcache/internal/vfs"
)

func TestForwardShapes(t *testing.T) {
	m := NewMLP([]int{3, 8, 2}, ReLU, Sigmoid, rand.New(rand.NewSource(1)))
	out := m.Forward([]float32{0.1, 0.2, 0.3})
	if len(out) != 2 {
		t.Fatalf("output dim = %d, want 2", len(out))
	}
	for _, v := range out {
		if v < 0 || v > 1 {
			t.Fatalf("sigmoid output %f outside [0,1]", v)
		}
	}
}

// TestGradientNumerically verifies backprop against finite differences for
// every parameter of a small network.
func TestGradientNumerically(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewMLP([]int{2, 4, 3, 1}, Tanh, Linear, rng)
	x := []float32{0.3, -0.7}

	loss := func() float64 {
		out := m.Forward(x)
		return float64(out[0]) * float64(out[0]) / 2 // L = y^2/2, dL/dy = y
	}

	// Analytic gradients.
	out := m.Forward(x)
	m.ZeroGrad()
	m.Backward([]float32{out[0]})

	const eps = 1e-3
	for l := range m.w {
		for i := range m.w[l] {
			orig := m.w[l][i]
			m.w[l][i] = orig + eps
			lp := loss()
			m.w[l][i] = orig - eps
			lm := loss()
			m.w[l][i] = orig
			numeric := (lp - lm) / (2 * eps)
			analytic := float64(m.gw[l][i])
			if math.Abs(numeric-analytic) > 1e-2*(1+math.Abs(numeric)) {
				t.Fatalf("layer %d w[%d]: numeric %f vs analytic %f", l, i, numeric, analytic)
			}
		}
		for j := range m.b[l] {
			orig := m.b[l][j]
			m.b[l][j] = orig + eps
			lp := loss()
			m.b[l][j] = orig - eps
			lm := loss()
			m.b[l][j] = orig
			numeric := (lp - lm) / (2 * eps)
			analytic := float64(m.gb[l][j])
			if math.Abs(numeric-analytic) > 1e-2*(1+math.Abs(numeric)) {
				t.Fatalf("layer %d b[%d]: numeric %f vs analytic %f", l, j, numeric, analytic)
			}
		}
	}
}

// TestInputGradientNumerically verifies the dLoss/dInput path used by
// policy-gradient updates.
func TestInputGradientNumerically(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMLP([]int{3, 5, 1}, ReLU, Linear, rng)
	x := []float32{0.5, -0.2, 0.9}
	out := m.Forward(x)
	m.ZeroGrad()
	dIn := m.Backward([]float32{out[0]})

	const eps = 1e-3
	for i := range x {
		xp := append([]float32(nil), x...)
		xp[i] += eps
		op := m.Forward(xp)
		lp := float64(op[0]) * float64(op[0]) / 2
		xm := append([]float32(nil), x...)
		xm[i] -= eps
		om := m.Forward(xm)
		lm := float64(om[0]) * float64(om[0]) / 2
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-float64(dIn[i])) > 1e-2*(1+math.Abs(numeric)) {
			t.Fatalf("dInput[%d]: numeric %f vs analytic %f", i, numeric, dIn[i])
		}
	}
}

func TestAdamLearnsRegression(t *testing.T) {
	// Fit y = 2a - b on random points; loss must drop substantially.
	rng := rand.New(rand.NewSource(4))
	m := NewMLP([]int{2, 16, 1}, Tanh, Linear, rng)
	target := func(a, b float32) float32 { return 2*a - b }
	var first, last float64
	for step := 0; step < 2000; step++ {
		a := float32(rng.Float64()*2 - 1)
		b := float32(rng.Float64()*2 - 1)
		out := m.Forward([]float32{a, b})
		diff := out[0] - target(a, b)
		if step == 0 {
			first = math.Abs(float64(diff))
		}
		last = math.Abs(float64(diff))
		m.Backward([]float32{diff})
		m.StepAdam(0.01)
	}
	if last > first/4 && last > 0.1 {
		t.Fatalf("Adam failed to learn: first err %f, last err %f", first, last)
	}
}

func TestParamAccountingMatchesPaper(t *testing.T) {
	// The paper's topology: input, two hidden layers of 256, small output.
	// Total across actor+critic ≈ 140K params ≈ 550 KB.
	actor := NewMLP([]int{12, 256, 256, 4}, ReLU, Sigmoid, rand.New(rand.NewSource(1)))
	critic := NewMLP([]int{12, 256, 256, 1}, ReLU, Linear, rand.New(rand.NewSource(2)))
	total := actor.NumParams() + critic.NumParams()
	if total < 120_000 || total > 160_000 {
		t.Fatalf("total params = %d, want ≈140K", total)
	}
	bytes := actor.MemoryBytes() + critic.MemoryBytes()
	if bytes < 450_000 || bytes > 650_000 {
		t.Fatalf("weight bytes = %d, want ≈550KB", bytes)
	}
	training := actor.TrainingMemoryBytes() + critic.TrainingMemoryBytes()
	if training < 3*bytes || training > 5*bytes {
		t.Fatalf("training bytes = %d, want ≈4× weights", training)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	fs := vfs.NewMem()
	rng := rand.New(rand.NewSource(5))
	m := NewMLP([]int{4, 8, 2}, ReLU, Sigmoid, rng)
	x := []float32{0.1, 0.2, 0.3, 0.4}
	want := append([]float32(nil), m.Forward(x)...)
	if err := m.Save(fs, "model.gob", "t1"); err != nil {
		t.Fatalf("Save: %v", err)
	}
	m2 := NewMLP([]int{4, 8, 2}, ReLU, Sigmoid, rand.New(rand.NewSource(99)))
	if err := m2.Load(fs, "model.gob", "t1"); err != nil {
		t.Fatalf("Load: %v", err)
	}
	got := m2.Forward(x)
	for i := range want {
		if math.Abs(float64(want[i]-got[i])) > 1e-6 {
			t.Fatalf("output %d: %f vs %f after round trip", i, want[i], got[i])
		}
	}
	// Architecture mismatch must fail.
	m3 := NewMLP([]int{4, 9, 2}, ReLU, Sigmoid, rng)
	if err := m3.Load(fs, "model.gob", "t1"); !errors.Is(err, ErrArchitectureMismatch) {
		t.Fatalf("Load with mismatched architecture: %v", err)
	}
	// So must a parametrization mismatch, with identical layer sizes.
	if err := m2.Load(fs, "model.gob", "t2"); !errors.Is(err, ErrArchitectureMismatch) {
		t.Fatalf("Load with mismatched tag: %v", err)
	}
}

func TestZeroOutputLayer(t *testing.T) {
	m := NewMLP([]int{4, 8, 3}, ReLU, Tanh, rand.New(rand.NewSource(3)))
	m.ZeroOutputLayer()
	for _, x := range [][]float32{{0, 0, 0, 0}, {1, -2, 3, 0.5}} {
		for i, y := range m.Forward(x) {
			if y != 0 {
				t.Fatalf("output %d = %v for %v, want exactly 0", i, y, x)
			}
		}
	}
}
