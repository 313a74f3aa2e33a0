// Package nn implements the small fully-connected networks behind AdCache's
// actor-critic controller: float32 MLPs with two hidden layers of 256 units
// (the paper's topology, ~140K parameters ≈ 550 KB of weights), and one
// training step that back-propagates and applies Adam in a single sweep
// over the weights.
//
// Networks are not safe for concurrent use; the RL agent owns them from a
// single background goroutine.
package nn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// Act selects a layer activation.
type Act int

// Supported activations.
const (
	Linear Act = iota
	ReLU
	Sigmoid
	Tanh
)

func (a Act) apply(z float32) float32 {
	switch a {
	case ReLU:
		if z < 0 {
			return 0
		}
		return z
	case Sigmoid:
		return float32(1 / (1 + math.Exp(-float64(z))))
	case Tanh:
		return float32(math.Tanh(float64(z)))
	default:
		return z
	}
}

// derivFromOutput returns dact/dz given the activation output y (all
// supported activations admit this form).
func (a Act) derivFromOutput(y float32) float32 {
	switch a {
	case ReLU:
		if y > 0 {
			return 1
		}
		return 0
	case Sigmoid:
		return y * (1 - y)
	case Tanh:
		return 1 - y*y
	default:
		return 1
	}
}

// MLP is a feed-forward network. Layer l maps sizes[l] → sizes[l+1].
type MLP struct {
	sizes []int
	acts  []Act // one per layer
	w     [][]float32
	b     [][]float32

	// Adam state.
	mw, vw, mb, vb [][]float32
	step           int

	// Forward scratch: inputs and activations per layer, and the indices
	// of a layer's nonzero inputs.
	as [][]float32
	nz []int
	// Train scratch: the loss gradient at a layer's output and at its
	// input, in turns.
	grad [2][]float32
}

// NewMLP builds a network with the given layer sizes. hidden is applied to
// every layer except the last, which uses out. Weights use He/Xavier-style
// scaled initialisation from rng.
func NewMLP(sizes []int, hidden, out Act, rng *rand.Rand) *MLP {
	if len(sizes) < 2 {
		panic("nn: MLP needs at least input and output sizes")
	}
	n := len(sizes) - 1
	m := &MLP{sizes: sizes, acts: make([]Act, n)}
	for l := 0; l < n; l++ {
		if l == n-1 {
			m.acts[l] = out
		} else {
			m.acts[l] = hidden
		}
		in, outDim := sizes[l], sizes[l+1]
		scale := float32(math.Sqrt(2 / float64(in)))
		w := make([]float32, in*outDim)
		for i := range w {
			w[i] = float32(rng.NormFloat64()) * scale
		}
		m.w = append(m.w, w)
		m.b = append(m.b, make([]float32, outDim))
		m.mw = append(m.mw, make([]float32, in*outDim))
		m.vw = append(m.vw, make([]float32, in*outDim))
		m.mb = append(m.mb, make([]float32, outDim))
		m.vb = append(m.vb, make([]float32, outDim))
	}
	m.as = make([][]float32, n+1)
	return m
}

// ZeroOutputLayer zeroes the last layer's weights and biases, so the
// network's pre-activation output is exactly 0 for every input until it
// learns otherwise.
func (m *MLP) ZeroOutputLayer() {
	n := len(m.w) - 1
	clear32(m.w[n])
	clear32(m.b[n])
}

// Forward runs the network on x and returns the output activations. The
// returned slice is owned by the network and valid until the next Forward.
// Each unit sums only its nonzero inputs — ReLU zeroes about half of a
// hidden layer — in input order, which is bit for bit the full sum: the
// skipped terms are zeros, and a sum that starts from a bias is never -0.
func (m *MLP) Forward(x []float32) []float32 {
	if len(x) != m.sizes[0] {
		panic(fmt.Sprintf("nn: input size %d, want %d", len(x), m.sizes[0]))
	}
	m.as[0] = append(m.as[0][:0], x...)
	cur := m.as[0]
	for l := range m.w {
		in, out := m.sizes[l], m.sizes[l+1]
		if cap(m.as[l+1]) < out {
			m.as[l+1] = make([]float32, out)
		}
		next := m.as[l+1][:out]
		nz := m.nz[:0]
		for i, xi := range cur {
			if xi != 0 {
				nz = append(nz, i)
			}
		}
		m.nz = nz
		w := m.w[l]
		for j := 0; j < out; j++ {
			sum := m.b[l][j]
			row := w[j*in : (j+1)*in]
			for _, i := range nz {
				sum += row[i] * cur[i]
			}
			next[j] = m.acts[l].apply(sum)
		}
		m.as[l+1] = next
		cur = next
	}
	return cur
}

func clear32(s []float32) {
	for i := range s {
		s[i] = 0
	}
}

// Train takes one training step on the input of the most recent Forward:
// it back-propagates dOut, dLoss/dOutput, and applies Adam with learning
// rate lr as it goes, layer by layer from the output. A weight's gradient
// is used the moment it is known, so no gradient is stored; the loss
// gradient at a layer's input is summed from the weights before their
// update. The result is bit for bit that of accumulating every gradient
// first and then stepping Adam over all of them. The inner loop stays in
// float32 (the tuner runs inline with serving in synchronous mode, so this
// is on a measured path).
func (m *MLP) Train(dOut []float32, lr float64) {
	m.step++
	a := adam{
		lr:     float32(lr),
		invBC1: float32(1 / (1 - math.Pow(adamBeta1, float64(m.step)))),
		invBC2: float32(1 / (1 - math.Pow(adamBeta2, float64(m.step)))),
	}
	if m.grad[0] == nil {
		m.grad = [2][]float32{make([]float32, slices.Max(m.sizes)), make([]float32, slices.Max(m.sizes))}
	}
	delta := m.grad[0][:copy(m.grad[0], dOut)]
	for l, k := len(m.w)-1, 1; l >= 0; l, k = l-1, 1-k {
		in, out := m.sizes[l], m.sizes[l+1]
		act := m.as[l+1]
		for j := 0; j < out; j++ {
			delta[j] *= m.acts[l].derivFromOutput(act[j])
		}
		prev := m.as[l][:in]
		var dIn []float32 // the first layer's is not needed
		if l > 0 {
			dIn = m.grad[k][:in]
			clear32(dIn)
		}
		w, mw, vw, b, mb, vb := m.w[l], m.mw[l], m.vw[l], m.b[l], m.mb[l], m.vb[l]
		for j, dj := range delta[:out] {
			a.row(w[j*in:(j+1)*in], mw[j*in:(j+1)*in], vw[j*in:(j+1)*in], prev, dIn, dj)
			a.row(b[j:j+1], mb[j:j+1], vb[j:j+1], one[:], nil, dj) // a bias's input is 1
		}
		delta = dIn
	}
}

// adam is one Adam step's learning rate and bias corrections.
type adam struct{ lr, invBC1, invBC2 float32 }

// Adam hyperparameters (standard defaults) and the flush threshold: tiny
// flushes would-be denormal moments to zero, since once gradients get small,
// persistent denormals in the moments otherwise cost x86 microcode traps on
// every subsequent step (a measured 20× slowdown).
const (
	adamBeta1 = 0.9
	adamBeta2 = 0.999
	adamEps   = 1e-8
	tiny      = 1e-30
)

var one = [1]float32{1}

// row updates the weights w, with moments mo and vo, of a unit whose
// output gradient is dj and whose inputs were x, after adding the unit's
// share of the loss gradient at its inputs, dj·w, to dIn (unless nil).
func (a adam) row(w, mo, vo, x, dIn []float32, dj float32) {
	const b1, b2, eps = float32(adamBeta1), float32(adamBeta2), float32(adamEps)
	mo, vo, x = mo[:len(w)], vo[:len(w)], x[:len(w)]
	if dIn != nil {
		dIn = dIn[:len(w)]
		for i, wi := range w {
			dIn[i] += dj * wi
		}
	}
	for i, wi := range w {
		g := float32(0) + dj*x[i] // as a zeroed accumulator would hold it
		m1 := b1*mo[i] + (1-b1)*g
		if m1 < tiny && m1 > -tiny {
			m1 = 0
		}
		mo[i] = m1
		v1 := b2*vo[i] + (1-b2)*g*g
		if v1 < tiny {
			v1 = 0
		}
		vo[i] = v1
		w[i] = wi - a.lr*(m1*a.invBC1)/(sqrt32(v1*a.invBC2)+eps)
	}
}

func sqrt32(v float32) float32 { return float32(math.Sqrt(float64(v))) }

// NumParams reports the parameter count (weights + biases).
func (m *MLP) NumParams() int {
	n := 0
	for l := range m.w {
		n += len(m.w[l]) + len(m.b[l])
	}
	return n
}

// MemoryBytes reports bytes held by parameters alone (float32), the
// quantity in the paper's Table 2 "model parameters" row.
func (m *MLP) MemoryBytes() int { return 4 * m.NumParams() }

// TrainingMemoryBytes adds the Adam moment buffers: parameters ×3 (params
// + first/second moments). Train keeps no gradient buffers, so this is one
// parameter copy less than the paper's "~4× parameters" accounting.
func (m *MLP) TrainingMemoryBytes() int { return 3 * m.MemoryBytes() }
