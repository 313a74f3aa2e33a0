// Package nn implements the small fully-connected networks behind AdCache's
// actor-critic controller: float32 MLPs with two hidden layers of 256 units
// (the paper's topology, ~140K parameters ≈ 550 KB of weights), manual
// backprop, and Adam.
//
// Networks are not safe for concurrent use; the RL agent owns them from a
// single background goroutine.
package nn

import (
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"

	"adcache/internal/vfs"
)

// ErrArchitectureMismatch is returned (wrapped) by Load when the saved
// snapshot's layer sizes or parametrization tag differ from the receiver's —
// e.g. an agent serialized before the state/action space grew, or one whose
// outputs meant something else. Callers reject such models cleanly instead
// of silently misreading them.
var ErrArchitectureMismatch = errors.New("nn: architecture mismatch")

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
	sizes  []int
	acts   []Act // one per layer
	w      [][]float32
	b      [][]float32
	gw, gb [][]float32

	// Adam state.
	mw, vw, mb, vb [][]float32
	step           int

	// Forward scratch (inputs and activations per layer).
	as [][]float32
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
		m.gw = append(m.gw, make([]float32, in*outDim))
		m.gb = append(m.gb, make([]float32, outDim))
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
		w := m.w[l]
		for j := 0; j < out; j++ {
			sum := m.b[l][j]
			row := w[j*in : (j+1)*in]
			for i, xi := range cur {
				sum += row[i] * xi
			}
			next[j] = m.acts[l].apply(sum)
		}
		m.as[l+1] = next
		cur = next
	}
	return cur
}

// Backward back-propagates dLoss/dOutput from the most recent Forward,
// accumulating parameter gradients, and returns dLoss/dInput.
func (m *MLP) Backward(dOut []float32) []float32 {
	n := len(m.w)
	delta := append([]float32(nil), dOut...)
	for l := n - 1; l >= 0; l-- {
		in, out := m.sizes[l], m.sizes[l+1]
		act := m.as[l+1]
		for j := 0; j < out; j++ {
			delta[j] *= m.acts[l].derivFromOutput(act[j])
		}
		prev := m.as[l]
		w := m.w[l]
		gw := m.gw[l]
		gb := m.gb[l]
		dPrev := make([]float32, in)
		for j := 0; j < out; j++ {
			dj := delta[j]
			gb[j] += dj
			row := w[j*in : (j+1)*in]
			grow := gw[j*in : (j+1)*in]
			for i := 0; i < in; i++ {
				grow[i] += dj * prev[i]
				dPrev[i] += dj * row[i]
			}
		}
		delta = dPrev
	}
	return delta
}

// ZeroGrad clears accumulated gradients.
func (m *MLP) ZeroGrad() {
	for l := range m.gw {
		clear32(m.gw[l])
		clear32(m.gb[l])
	}
}

func clear32(s []float32) {
	for i := range s {
		s[i] = 0
	}
}

// Adam hyperparameters (standard defaults).
const (
	adamBeta1 = 0.9
	adamBeta2 = 0.999
	adamEps   = 1e-8
)

// StepAdam applies one Adam update with learning rate lr using the
// accumulated gradients, then zeroes them. The inner loop stays in float32
// (the tuner runs inline with serving in synchronous mode, so this is on a
// measured path).
func (m *MLP) StepAdam(lr float64) {
	m.step++
	invBC1 := float32(1 / (1 - math.Pow(adamBeta1, float64(m.step))))
	invBC2 := float32(1 / (1 - math.Pow(adamBeta2, float64(m.step))))
	const (
		b1  = float32(adamBeta1)
		b2  = float32(adamBeta2)
		eps = float32(adamEps)
	)
	lr32 := float32(lr)
	// tiny flushes would-be denormal moments to zero: once gradients get
	// small, persistent denormals in mo/vo otherwise cost x86 microcode
	// traps on every subsequent step (a measured 20× slowdown).
	const tiny = 1e-30
	update := func(w, g, mo, vo []float32) {
		for i := range w {
			gi := g[i]
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
		}
	}
	for l := range m.w {
		update(m.w[l], m.gw[l], m.mw[l], m.vw[l])
		update(m.b[l], m.gb[l], m.mb[l], m.vb[l])
	}
	m.ZeroGrad()
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

// TrainingMemoryBytes adds gradient and Adam moment buffers: parameters ×4
// (params + grads + first/second moments), the paper's "~4× parameters"
// accounting.
func (m *MLP) TrainingMemoryBytes() int { return 4 * m.MemoryBytes() }

// snapshot is the gob-serialisable form of an MLP. Tag names what the
// outputs mean to the owner; snapshots written before it existed decode with
// an empty tag.
type snapshot struct {
	Sizes []int
	Acts  []Act
	W     [][]float32
	B     [][]float32
	Tag   string
}

// Save writes the network weights to path on fs, tagged with the owner's
// parametrization, and syncs path's directory so the new file survives a
// crash.
func (m *MLP) Save(fs vfs.FS, path, tag string) error {
	f, err := fs.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := gob.NewEncoder(writerAdapter{f})
	if err := enc.Encode(snapshot{Sizes: m.sizes, Acts: m.acts, W: m.w, B: m.b, Tag: tag}); err != nil {
		return err
	}
	return fs.SyncDir(filepath.Dir(path))
}

// Load reads network weights from path on fs. The layer sizes and the
// parametrization tag must match.
func (m *MLP) Load(fs vfs.FS, path, tag string) error {
	f, err := fs.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return err
	}
	data := make([]byte, size)
	if _, err := f.ReadAt(data, 0); err != nil {
		return err
	}
	var snap snapshot
	if err := gob.NewDecoder(newByteReader(data)).Decode(&snap); err != nil {
		return err
	}
	if snap.Tag != tag {
		return fmt.Errorf("%w: parametrization %q, want %q", ErrArchitectureMismatch, snap.Tag, tag)
	}
	if len(snap.Sizes) != len(m.sizes) {
		return fmt.Errorf("%w: %v vs %v", ErrArchitectureMismatch, snap.Sizes, m.sizes)
	}
	for i := range snap.Sizes {
		if snap.Sizes[i] != m.sizes[i] {
			return fmt.Errorf("%w: %v vs %v", ErrArchitectureMismatch, snap.Sizes, m.sizes)
		}
	}
	m.acts = snap.Acts
	m.w = snap.W
	m.b = snap.B
	return nil
}

type writerAdapter struct{ f vfs.File }

func (w writerAdapter) Write(p []byte) (int, error) { return w.f.Write(p) }

type byteReader struct {
	data []byte
	off  int
}

func newByteReader(data []byte) *byteReader { return &byteReader{data: data} }

func (r *byteReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, fmt.Errorf("EOF")
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}
