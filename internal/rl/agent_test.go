package rl

import (
	"encoding/gob"
	"errors"
	"math"
	"math/rand"
	"testing"

	"adcache/internal/nn"
	"adcache/internal/vfs"
)

func constState() []float32 { return make([]float32, StateDim) }

// midPrior sits away from the [0, 1] edges, so prior ± ResidualSpan is
// never clipped.
var midPrior = Action{RangeRatio: 0.5, PointThreshold: 0.5, ScanA: 0.5, ScanB: 0.5, MemRatio: 0.5}

func randomState(rng *rand.Rand) []float32 {
	s := make([]float32, StateDim)
	for i := range s {
		s[i] = rng.Float32()
	}
	return s
}

// randomPrior draws priors that include the edges of [0, 1].
func randomPrior(rng *rand.Rand) Action {
	v := make([]float64, ActionDim)
	for i := range v {
		switch rng.Intn(4) {
		case 0:
			v[i] = 0
		case 1:
			v[i] = 1
		default:
			v[i] = rng.Float64()
		}
	}
	return actionFrom(v)
}

// checkWithinSpan fails unless every component of act lies within
// prior ± ResidualSpan and [0, 1].
func checkWithinSpan(t *testing.T, what string, act, prior Action) {
	t.Helper()
	p, v := prior.vector(), act.vector()
	for i := range v {
		lo, hi := math.Max(0, p[i]-ResidualSpan), math.Min(1, p[i]+ResidualSpan)
		if !(v[i] >= lo && v[i] <= hi) { // also catches NaN
			t.Fatalf("%s: component %d = %v outside [%v, %v] (prior %v)", what, i, v[i], lo, hi, p[i])
		}
	}
}

func TestActBounded(t *testing.T) {
	a := New(DefaultConfig())
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		prior := randomPrior(rng)
		checkWithinSpan(t, "Act", a.Act(constState(), prior), prior)
	}
}

// TestFreshAgentActsOnPrior: an untrained agent's noiseless action is the
// prior, exactly, for any state — and a frozen agent's whole trajectory is
// the prior's.
func TestFreshAgentActsOnPrior(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := New(DefaultConfig())
	for i := 0; i < 200; i++ {
		s, prior := randomState(rng), randomPrior(rng)
		if got := a.greedy(s, prior); got != prior {
			t.Fatalf("fresh agent's mean %+v, want the prior %+v", got, prior)
		}
	}
	cfg := DefaultConfig()
	cfg.Frozen = true
	frozen := New(cfg)
	for i := 0; i < 200; i++ {
		s, prior := randomState(rng), randomPrior(rng)
		if got := frozen.Act(s, prior); got != prior {
			t.Fatalf("step %d: frozen agent acted %+v, want the prior %+v", i, got, prior)
		}
		frozen.Update(rng.Float64(), rng.Float64()-0.5, randomState(rng))
	}
}

// TestResidualStaysBounded drives 10⁴ updates (adversarialUpdates) whose
// reward always favours the most extreme action it just saw, and checks no
// action — sampled or mean — ever leaves prior ± ResidualSpan.
func TestResidualStaysBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cfg := DefaultConfig()
	cfg.ExploreStd = 0.3
	a := New(cfg)
	for i := 0; i < adversarialUpdates; i++ {
		s, prior := randomState(rng), randomPrior(rng)
		act := a.Act(s, prior)
		checkWithinSpan(t, "Act", act, prior)
		// Reward pushes every dimension up on even steps and down on odd
		// ones, scaled far past any real reward.
		push := act.RangeRatio + act.PointThreshold + act.ScanA + act.ScanB + act.MemRatio
		if i%2 == 1 {
			push = -push
		}
		a.Update(100*push, -1, randomState(rng))
		if i%100 == 0 {
			checkWithinSpan(t, "greedy", a.greedy(s, prior), prior)
		}
	}
}

// TestUnrewardedResidualStaysNearPrior: updates whose reward carries no
// information about the action (the untrained-critic regime every
// deployment starts in) must not walk the residual to the edge of its span.
func TestUnrewardedResidualStaysNearPrior(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		cfg := DefaultConfig()
		cfg.Seed = seed
		a := New(cfg)
		rng := rand.New(rand.NewSource(seed))
		s := randomState(rng)
		for i := 0; i < 1000; i++ {
			a.Act(s, midPrior)
			a.Update(0.5+0.1*rng.NormFloat64(), 0, s)
		}
		got, want := a.greedy(s, midPrior).vector(), midPrior.vector()
		for i := range got {
			if d := math.Abs(got[i] - want[i]); d > ResidualSpan/2 {
				t.Errorf("seed %d: dim %d drifted %.3f from the prior on reward noise alone", seed, i, d)
			}
		}
	}
}

// TestPositiveTDMovesMeanTowardSample: one update with a positive TD error
// moves the action-space mean toward the action that earned it, in every
// dimension.
func TestPositiveTDMovesMeanTowardSample(t *testing.T) {
	a := New(DefaultConfig())
	s := randomState(rand.New(rand.NewSource(5)))
	before := a.greedy(s, midPrior).vector()
	act := a.Act(s, midPrior).vector()
	a.Update(100, 0, s) // r ≫ |V|: the TD error is positive
	after := a.greedy(s, midPrior).vector()
	for i := range act {
		want, moved := act[i]-before[i], after[i]-before[i]
		if want == 0 || moved*want <= 0 {
			t.Fatalf("dim %d: mean %v → %v, sampled action %v", i, before[i], after[i], act[i])
		}
	}
}

func TestFrozenAgentIsDeterministicAndUnchanging(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Frozen = true
	a := New(cfg)
	s := constState()
	first := a.Act(s, midPrior)
	for i := 0; i < 10; i++ {
		a.Update(0.5, 0.5, s) // must be a no-op
		got := a.Act(s, midPrior)
		if got != first {
			t.Fatalf("frozen agent changed output: %+v vs %+v", got, first)
		}
	}
	if a.Steps() != 0 {
		t.Fatalf("frozen agent recorded %d steps", a.Steps())
	}
}

// TestConvergesToRewardPeak runs bandit environments whose reward peaks at
// 0.6, a residual of +0.1 from the prior's 0.5, and checks the policy mean
// migrates toward it: on the range ratio at a fixed learning rate (lrDelta
// 0), and on scan b with the reward also driving the adaptive learning rate,
// as online tuning does — the reward is never positive there, so the rate
// grows instead of collapsing.
func TestConvergesToRewardPeak(t *testing.T) {
	for _, tc := range []struct {
		name     string
		seed     int64
		actorLR  float64
		dim      int // index into Action.vector()
		offset   float64
		adaptive bool
		steps    int
		tol      float64
	}{
		{"range_ratio/fixed_lr", 7, 5e-3, 0, 0.2, false, 3000, 0.03},
		{"scan_b/adaptive_lr", 11, 0, 3, 0, true, 2500, 0.05},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Seed = tc.seed
			if tc.actorLR > 0 {
				cfg.ActorLR = tc.actorLR
			}
			a := New(cfg)
			s := constState()
			dist := func(act Action) float64 { return math.Abs(act.vector()[tc.dim] - 0.6) }
			initial := dist(a.greedy(s, midPrior))
			for i := 0; i < tc.steps; i++ {
				reward := tc.offset - dist(a.Act(s, midPrior))
				lrDelta := 0.0
				if tc.adaptive {
					lrDelta = reward
				}
				a.Update(reward, lrDelta, s)
			}
			final := dist(a.greedy(s, midPrior))
			if final >= initial || final > tc.tol {
				t.Fatalf("policy did not approach peak: initial dist %.3f, final %.3f", initial, final)
			}
		})
	}
}

func TestAdaptiveLearningRate(t *testing.T) {
	a := New(DefaultConfig())
	s := constState()
	a.Act(s, midPrior)
	lr0 := a.ActorLR()
	a.Update(0.5, 0.5, s) // positive lrDelta → decay
	if a.ActorLR() >= lr0 {
		t.Fatalf("lr did not decay on positive reward: %g -> %g", lr0, a.ActorLR())
	}
	a.Act(s, midPrior)
	lrBefore := a.ActorLR()
	a.Update(-0.5, -0.5, s) // negative lrDelta (workload shift) → grow
	if a.ActorLR() <= lrBefore {
		t.Fatalf("lr did not grow on negative reward: %g -> %g", lrBefore, a.ActorLR())
	}
	// Bounds hold under extreme rewards.
	for i := 0; i < 20; i++ {
		a.Act(s, midPrior)
		a.Update(-10, -10, s)
	}
	if a.ActorLR() > 1e-2 {
		t.Fatalf("lr exceeded upper bound: %g", a.ActorLR())
	}
	for i := 0; i < 200; i++ {
		a.Act(s, midPrior)
		a.Update(0.99, 0.99, s)
	}
	if a.ActorLR() < 1e-5 {
		t.Fatalf("lr fell below lower bound: %g", a.ActorLR())
	}
}

func TestMemoryAccountingTable2(t *testing.T) {
	a := New(DefaultConfig())
	if n := a.NumParams(); n < 120_000 || n > 160_000 {
		t.Fatalf("NumParams = %d, want ≈140K (paper Table 2)", n)
	}
	if b := a.MemoryBytes(); b < 450_000 || b > 650_000 {
		t.Fatalf("MemoryBytes = %d, want ≈550KB", b)
	}
	if tb := a.TrainingMemoryBytes(); tb != 4*a.MemoryBytes() {
		t.Fatalf("TrainingMemoryBytes = %d, want 4× weights", tb)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	fs := vfs.NewMem()
	a := New(DefaultConfig())
	s := constState()
	// Move the residual off zero so the round trip has something to carry.
	for i := 0; i < 20; i++ {
		a.Act(s, midPrior)
		a.Update(1, 0, s)
	}
	want := a.greedy(s, midPrior)
	if want == midPrior {
		t.Fatal("updates left the residual at zero")
	}
	if err := a.Save(fs, "models/agent"); err != nil {
		t.Fatalf("Save: %v", err)
	}
	cfg := DefaultConfig()
	cfg.Seed = 999
	b := New(cfg)
	if err := b.Load(fs, "models/agent"); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got := b.greedy(s, midPrior); got != want {
		t.Fatalf("loaded agent differs: %+v vs %+v", got, want)
	}
}

// parentSnapshot is the nn snapshot layout before parametrization tags:
// what the direct-output (sigmoid) actor and its critic were saved as.
type parentSnapshot struct {
	Sizes []int
	Acts  []nn.Act
	W     [][]float32
	B     [][]float32
}

// TestParentModelRejected: a model saved by the direct-output actor has
// exactly the current layer sizes, so only its (missing) parametrization
// tag tells it apart. Load must refuse it rather than read its sigmoid
// outputs as residuals.
func TestParentModelRejected(t *testing.T) {
	fs := vfs.NewMem()
	write := func(path string, sizes []int, out nn.Act) {
		snap := parentSnapshot{Sizes: sizes, Acts: []nn.Act{nn.ReLU, nn.ReLU, out}}
		for l := 0; l+1 < len(sizes); l++ {
			snap.W = append(snap.W, make([]float32, sizes[l]*sizes[l+1]))
			snap.B = append(snap.B, make([]float32, sizes[l+1]))
		}
		f, err := fs.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := gob.NewEncoder(fileWriter{f}).Encode(snap); err != nil {
			t.Fatal(err)
		}
	}
	write("parent.actor", []int{StateDim, HiddenDim, HiddenDim, ActionDim}, nn.Sigmoid)
	write("parent.critic", []int{StateDim, HiddenDim, HiddenDim, 1}, nn.Linear)

	a := New(DefaultConfig())
	if err := a.Load(fs, "parent"); !errors.Is(err, nn.ErrArchitectureMismatch) {
		t.Fatalf("Load(parent model) = %v, want nn.ErrArchitectureMismatch", err)
	}
	if got := a.greedy(constState(), midPrior); got != midPrior {
		t.Fatalf("rejected load changed the agent: %+v", got)
	}
}

type fileWriter struct{ f vfs.File }

func (w fileWriter) Write(p []byte) (int, error) { return w.f.Write(p) }
