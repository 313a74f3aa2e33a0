package nn

import (
	"errors"
	"fmt"
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
	g := newRefGrads(m)
	g.backward(m, []float32{out[0]})

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
			analytic := float64(g.gw[l][i])
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
			analytic := float64(g.gb[l][j])
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
	dIn := newRefGrads(m).backward(m, []float32{out[0]})

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
		m.Train([]float32{diff}, 0.01)
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
	// Weights and Adam's two moments; Train keeps no gradient buffers.
	if training := actor.TrainingMemoryBytes() + critic.TrainingMemoryBytes(); training != 3*bytes {
		t.Fatalf("training bytes = %d, want 3× weights (%d)", training, 3*bytes)
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

// refGrads is the two-pass reference for Train: gradients accumulated by
// backward, then applied by stepAdam — the update Train must reproduce bit
// for bit.
type refGrads struct{ gw, gb [][]float32 }

func newRefGrads(m *MLP) *refGrads {
	g := &refGrads{}
	for l := range m.w {
		g.gw = append(g.gw, make([]float32, len(m.w[l])))
		g.gb = append(g.gb, make([]float32, len(m.b[l])))
	}
	return g
}

// forward is the dense reference for Forward: every input summed.
func refForward(m *MLP, x []float32) []float32 {
	cur := x
	for l := range m.w {
		in, out := m.sizes[l], m.sizes[l+1]
		next := make([]float32, out)
		for j := 0; j < out; j++ {
			sum := m.b[l][j]
			row := m.w[l][j*in : (j+1)*in]
			for i, xi := range cur {
				sum += row[i] * xi
			}
			next[j] = m.acts[l].apply(sum)
		}
		cur = next
	}
	return cur
}

// backward accumulates the gradients of dOut at the most recent Forward
// and returns dLoss/dInput.
func (g *refGrads) backward(m *MLP, dOut []float32) []float32 {
	delta := append([]float32(nil), dOut...)
	for l := len(m.w) - 1; l >= 0; l-- {
		in, out := m.sizes[l], m.sizes[l+1]
		act := m.as[l+1]
		for j := 0; j < out; j++ {
			delta[j] *= m.acts[l].derivFromOutput(act[j])
		}
		prev := m.as[l]
		dPrev := make([]float32, in)
		for j := 0; j < out; j++ {
			dj := delta[j]
			g.gb[l][j] += dj
			row := m.w[l][j*in : (j+1)*in]
			grow := g.gw[l][j*in : (j+1)*in]
			for i := 0; i < in; i++ {
				grow[i] += dj * prev[i]
				dPrev[i] += dj * row[i]
			}
		}
		delta = dPrev
	}
	return delta
}

// stepAdam applies one Adam update from the accumulated gradients and
// zeroes them.
func (g *refGrads) stepAdam(m *MLP, lr float64) {
	m.step++
	invBC1 := float32(1 / (1 - math.Pow(adamBeta1, float64(m.step))))
	invBC2 := float32(1 / (1 - math.Pow(adamBeta2, float64(m.step))))
	const b1, b2, eps, tiny = float32(adamBeta1), float32(adamBeta2), float32(adamEps), 1e-30
	lr32 := float32(lr)
	update := func(w, gr, mo, vo []float32) {
		for i := range w {
			gi := gr[i]
			m1 := b1*mo[i] + (1-b1)*gi
			if m1 < tiny && m1 > -tiny {
				m1 = 0
			}
			mo[i] = m1
			v1 := b2*vo[i] + (1-b2)*gi*gi
			if v1 < tiny {
				v1 = 0
			}
			vo[i] = v1
			w[i] -= lr32 * (m1 * invBC1) / (sqrt32(v1*invBC2) + eps)
			gr[i] = 0
		}
	}
	for l := range m.w {
		update(m.w[l], g.gw[l], m.mw[l], m.vw[l])
		update(m.b[l], g.gb[l], m.mb[l], m.vb[l])
	}
}

// sameBits reports the first parameter or moment where a and b differ in
// any bit, or "" if they are identical.
func sameBits(a, b *MLP) string {
	for l := range a.w {
		for name, pair := range map[string][2][]float32{
			"w": {a.w[l], b.w[l]}, "b": {a.b[l], b.b[l]},
			"mw": {a.mw[l], b.mw[l]}, "vw": {a.vw[l], b.vw[l]},
			"mb": {a.mb[l], b.mb[l]}, "vb": {a.vb[l], b.vb[l]},
		} {
			for i := range pair[0] {
				if math.Float32bits(pair[0][i]) != math.Float32bits(pair[1][i]) {
					return fmt.Sprintf("layer %d %s[%d]: %v vs %v", l, name, i, pair[0][i], pair[1][i])
				}
			}
		}
	}
	return ""
}

// TestTrainMatchesTwoPass pins Train, and Forward's sparse sums, to the
// two-pass reference bit for bit: 300 steps on the controller's shapes —
// the Tanh actor and the Linear critic — with inputs that are partly zero,
// as the controller's state is.
func TestTrainMatchesTwoPass(t *testing.T) {
	for _, tc := range []struct {
		name string
		out  int
		act  Act
	}{{"tanh actor", 4, Tanh}, {"linear critic", 1, Linear}} {
		t.Run(tc.name, func(t *testing.T) {
			sizes := []int{13, 256, 256, tc.out}
			fused := NewMLP(sizes, ReLU, tc.act, rand.New(rand.NewSource(7)))
			ref := NewMLP(sizes, ReLU, tc.act, rand.New(rand.NewSource(7)))
			g := newRefGrads(ref)
			rng := rand.New(rand.NewSource(8))
			x, dOut := make([]float32, 13), make([]float32, tc.out)
			for step := 0; step < 300; step++ {
				for i := range x {
					x[i] = 0
					if rng.Intn(3) > 0 {
						x[i] = float32(rng.Float64())
					}
				}
				for i := range dOut {
					dOut[i] = float32(rng.NormFloat64())
				}
				got := fused.Forward(x)
				ref.Forward(x)
				for i, want := range refForward(ref, x) {
					if math.Float32bits(got[i]) != math.Float32bits(want) {
						t.Fatalf("step %d: Forward output %d = %v, the dense sum %v", step, i, got[i], want)
					}
				}
				fused.Train(dOut, 1e-3)
				g.backward(ref, dOut)
				g.stepAdam(ref, 1e-3)
				if diff := sameBits(fused, ref); diff != "" {
					t.Fatalf("step %d: Train differs from backward + Adam at %s", step, diff)
				}
			}
		})
	}
}
