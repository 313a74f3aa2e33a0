package rl

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func constState() []float32 { return make([]float32, StateDim) }

// midPrior sits away from the [0, 1] edges, so prior ± ResidualSpan is
// never clipped.
var midPrior = Action{RangeRatio: 0.5, PointThreshold: 0.5, ScanA: 0.5, ScanB: 0.5}

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
	a := New(Config{})
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
	a := New(Config{})
	for i := 0; i < 200; i++ {
		s, prior := randomState(rng), randomPrior(rng)
		if got := a.greedy(s, prior); got != prior {
			t.Fatalf("fresh agent's mean %+v, want the prior %+v", got, prior)
		}
	}
	frozen := New(Config{Frozen: true})
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
	a := New(Config{exploreStd: 0.3})
	for i := 0; i < adversarialUpdates; i++ {
		s, prior := randomState(rng), randomPrior(rng)
		act := a.Act(s, prior)
		checkWithinSpan(t, "Act", act, prior)
		// Reward pushes every dimension up on even steps and down on odd
		// ones, scaled far past any real reward.
		push := act.RangeRatio + act.PointThreshold + act.ScanA + act.ScanB
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
		a := New(Config{seed: seed})
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

// TestEarlyResidualStaysNearPrior: over a fresh agent's first 15 updates,
// on a reward that does not depend on the action, the residual moves
// less than 0.4 of the span in the median of 40 seeds. The reward's level
// is a hit rate the untrained critic does not know yet, as in a controller's
// first windows; without the actor's warm-up the median is 0.52.
func TestEarlyResidualStaysNearPrior(t *testing.T) {
	var drift []float64
	for seed := int64(1); seed <= 40; seed++ {
		a := New(Config{seed: seed})
		rng := rand.New(rand.NewSource(seed))
		s := randomState(rng)
		for i := 0; i < 15; i++ {
			a.Act(s, midPrior)
			a.Update(0.4+0.01*rng.NormFloat64(), 0, s)
		}
		got, want := a.greedy(s, midPrior).vector(), midPrior.vector()
		worst := 0.0
		for i := range got {
			worst = math.Max(worst, math.Abs(got[i]-want[i]))
		}
		drift = append(drift, worst/ResidualSpan)
	}
	sort.Float64s(drift)
	if median := drift[len(drift)/2]; median >= 0.4 {
		t.Fatalf("median early drift %.3f of the span on a reward without signal (max %.3f)", median, drift[len(drift)-1])
	}
}

// TestPositiveTDMovesMeanTowardSample: one update with a positive TD error
// moves the action-space mean toward the action that earned it, in every
// dimension.
func TestPositiveTDMovesMeanTowardSample(t *testing.T) {
	a := New(Config{})
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
	a := New(Config{Frozen: true})
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
			a := New(Config{seed: tc.seed, actorLR: tc.actorLR})
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
	a := New(Config{})
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
	a := New(Config{})
	if n := a.NumParams(); n < 120_000 || n > 160_000 {
		t.Fatalf("NumParams = %d, want ≈140K (paper Table 2)", n)
	}
	if b := a.MemoryBytes(); b < 450_000 || b > 650_000 {
		t.Fatalf("MemoryBytes = %d, want ≈550KB", b)
	}
	// Weights and Adam's two moments: training keeps no gradient buffers.
	if tb := a.TrainingMemoryBytes(); tb != 3*a.MemoryBytes() {
		t.Fatalf("TrainingMemoryBytes = %d, want 3× weights", tb)
	}
}

// TestUpdateReusesActActivations pins the flag behind Update's reuse of
// Act's forward pass: an agent whose actor ran on another state between
// Act and Update (a greedy query) must train exactly as one whose did not.
func TestUpdateReusesActActivations(t *testing.T) {
	plain, probed := New(Config{}), New(Config{})
	other := make([]float32, StateDim)
	for i := range other {
		other[i] = 1
	}
	s := constState()
	for step := 0; step < 50; step++ {
		reward := 0.5 + 0.01*float64(step%7)
		if got, want := probed.Act(s, midPrior), plain.Act(s, midPrior); got != want {
			t.Fatalf("step %d: actions diverge: %+v vs %+v", step, got, want)
		}
		probed.greedy(other, midPrior)
		plain.Update(reward, 0, s)
		probed.Update(reward, 0, s)
	}
	if got, want := probed.greedy(s, midPrior), plain.greedy(s, midPrior); got != want {
		t.Fatalf("a greedy query between Act and Update changed training: %+v vs %+v", got, want)
	}
}

// TestOnlyTheBudgetDimGetsDampedNoise: the range ratio, the one action that
// moves bytes between caches, explores at half the noise of the admission
// parameters.
func TestOnlyTheBudgetDimGetsDampedNoise(t *testing.T) {
	a := New(Config{})
	std := a.cfg.exploreStd
	if got := a.noiseStd(0); got != std/2 {
		t.Fatalf("range ratio noise %v, want %v", got, std/2)
	}
	for i := 1; i < ActionDim; i++ {
		if got := a.noiseStd(i); got != std {
			t.Fatalf("action %d noise %v, want %v", i, got, std)
		}
	}
}
