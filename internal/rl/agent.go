// Package rl implements AdCache's Policy Decision Controller: a lightweight
// actor-critic agent over a continuous, low-dimensional action space
// (§3.5). The caller supplies a prior action with every state; the actor, a
// 2×256 MLP, emits a tanh-bounded residual around it, so every action lies
// within prior ± ResidualSpan. The actor's output layer starts at zero, so an
// untrained agent acts exactly on the prior. Exploration adds Gaussian noise
// to the actor's output — the residual, in units of the span, so in action
// units it is ResidualSpan× the configured σ; the critic is a value
// baseline. Rewards arrive pre-computed by the caller
// (the smoothed relative change of the estimated hit rate), and the actor's
// learning rate adapts as lr ← lr·(1 − reward), growing after workload
// shifts and decaying during stable phases. The actor's first ten updates
// ramp its step up while the critic learns the return.
package rl

import (
	"math"
	"math/rand"

	"adcache/internal/nn"
)

// ResidualSpan bounds the actor's correction: every action, exploration
// included, lies within prior ± ResidualSpan (intersected with [0, 1]).
const ResidualSpan = 0.15

// residualPull weighs a unit Gaussian prior on the residual (in span units)
// in the actor's loss: dL/dtanh(z) gains residualPull·tanh(z). Adam moves
// every output weight by about the learning rate per update whatever the
// gradient's size, so without it an update stream carrying no signal walks
// the residual into tanh's saturation — where the gradient vanishes and the
// bound becomes absorbing — within tens of windows
// (TestUnrewardedResidualStaysNearPrior). The pull is weak enough that a
// reward slope of one per unit action still carries the residual to a peak
// two thirds of the span out (TestConvergesToRewardPeak).
const residualPull = 0.2

// Dimensions of the control problem.
const (
	// StateDim is the workload/cache feature vector length. Feature 12 is
	// the block cache's physical/logical byte ratio (1.0 when blocks are
	// uncompressed or the cache is empty), so the budget split observes
	// what its byte budget actually buys in decoded data.
	StateDim = 13
	// ActionDim covers: range-cache ratio, point admission threshold,
	// scan partial-admission a (normalised), scan partial-admission b.
	ActionDim = 4
	// HiddenDim matches the paper's 256-unit hidden layers.
	HiddenDim = 256
)

// Action is the decoded controller output, all components in [0, 1].
type Action struct {
	// RangeRatio is the fraction of the cache budget given to the range
	// cache (the rest goes to the block cache).
	RangeRatio float64
	// PointThreshold is the normalised frequency-score threshold for point
	// admission (scaled by the strategy).
	PointThreshold float64
	// ScanA is the full-admission length threshold, normalised to [0,1] of
	// the strategy's maximum scan length.
	ScanA float64
	// ScanB is the partial-admission aggressiveness b.
	ScanB float64
}

func (a Action) vector() []float64 {
	return []float64{a.RangeRatio, a.PointThreshold, a.ScanA, a.ScanB}
}

func actionFrom(v []float64) Action {
	return Action{RangeRatio: v[0], PointThreshold: v[1], ScanA: v[2], ScanB: v[3]}
}

// Config tunes the agent. The zero value is the paper's settings.
type Config struct {
	// Frozen disables learning and exploration: the agent acts on the prior
	// plus whatever residual its (loaded) weights produce.
	Frozen bool

	// The fields below are not settable outside the package: every caller
	// runs with the paper's settings, and only the package's own tests
	// vary them.

	// actorLR is the actor's initial learning rate (paper: 1e-3).
	actorLR float64
	// exploreStd is the Gaussian exploration noise applied to the actor's
	// output, the residual in units of ResidualSpan: the default 0.08 is
	// 0.012 in action units, 0.15× the direct-output actor's exploration
	// (DESIGN.md, "Controller prior"). The budget-moving action gets half
	// of it (noiseStd).
	exploreStd float64
	// seed drives weight init and exploration noise. Default 1.
	seed int64
}

// The paper's critic settings; no caller tunes them.
const (
	// criticLR is the critic's learning rate (paper: 1e-3, as the actor's).
	criticLR = 1e-3
	// gamma is the discount factor.
	gamma = 0.9
	// actorWarmup is the critic's horizon, 1/(1−gamma) updates: the
	// actor's step ramps up to the full learning rate over that many.
	actorWarmup = 10
)

// Agent is the actor-critic controller. Not safe for concurrent use; the
// background tuning goroutine owns it.
type Agent struct {
	cfg    Config
	actor  *nn.MLP
	critic *nn.MLP
	rng    *rand.Rand

	actorLR float64

	havePrev  bool
	prevState []float32
	// actorOut is the actor's output for prevState from Act's forward pass,
	// whose activations Update trains on; nil once another forward pass
	// (greedy) or a weight change has come between.
	actorOut []float32
	// prevNoise is the Gaussian draw of the last Act (residual units), before
	// clamping: the score is taken on it, since clamped samples are
	// one-sided at a bound and would push the mean inward on every positive
	// TD error.
	prevNoise []float64

	steps int64

	// Last-update training losses, for tuning exposition: the critic's TD
	// squared error and the actor's policy-gradient surrogate −A·logπ(a|s).
	lastCriticLoss float64
	lastActorLoss  float64
}

// New returns an agent with freshly initialised networks.
func New(cfg Config) *Agent {
	if cfg.actorLR <= 0 {
		cfg.actorLR = 1e-3
	}
	if cfg.exploreStd <= 0 {
		cfg.exploreStd = 0.08
	}
	if cfg.seed == 0 {
		cfg.seed = 1
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	actor := nn.NewMLP([]int{StateDim, HiddenDim, HiddenDim, ActionDim}, nn.ReLU, nn.Tanh, rng)
	actor.ZeroOutputLayer()
	return &Agent{
		cfg:     cfg,
		actor:   actor,
		critic:  nn.NewMLP([]int{StateDim, HiddenDim, HiddenDim, 1}, nn.ReLU, nn.Linear, rng),
		rng:     rng,
		actorLR: cfg.actorLR,
	}
}

// noiseStd returns the exploration standard deviation for action dim i.
// The budget-moving dim (range ratio) gets half of exploreStd: jitter there
// evicts cache entries, unlike jitter on admission thresholds.
func (a *Agent) noiseStd(i int) float64 {
	if i == 0 {
		return a.cfg.exploreStd / 2
	}
	return a.cfg.exploreStd
}

// means returns the action-space means prior + ResidualSpan·tanh(actor(s)),
// unclamped, and the actor's output.
func (a *Agent) means(state []float32, prior []float64) ([]float64, []float32) {
	z := a.actor.Forward(state)
	mu := make([]float64, ActionDim)
	for i := range mu {
		mu[i] = prior[i] + ResidualSpan*float64(z[i])
	}
	return mu, z
}

// bound clamps v into prior ± ResidualSpan, intersected with [0, 1].
func bound(v, prior float64) float64 {
	return clampF(v, max(0, prior-ResidualSpan), min(1, prior+ResidualSpan))
}

// Act returns the action for state around prior, including exploration
// noise unless the agent is frozen. It records the state and noise for the
// next Update.
func (a *Agent) Act(state []float32, prior Action) Action {
	p := prior.vector()
	act, z := a.means(state, p)
	a.prevNoise = a.prevNoise[:0]
	for i := range act {
		var noise float64
		if !a.cfg.Frozen {
			noise = a.rng.NormFloat64() * a.noiseStd(i)
		}
		a.prevNoise = append(a.prevNoise, noise)
		act[i] = bound(act[i]+ResidualSpan*noise, p[i])
	}
	a.prevState = append(a.prevState[:0], state...)
	a.actorOut = z
	a.havePrev = true
	return actionFrom(act)
}

// Update performs one actor-critic step. reward is the return signal for
// the previous action — the smoothed estimated hit rate, so the critic
// learns the discounted long-term hit rate the paper says the agent
// optimises. lrDelta is the paper's §3.5 relative hit-rate change
// Δh_smoothed/h_smoothed, which drives only the adaptive learning rate
// (lr ← lr·(1 − lrDelta)): negative after a workload shift → more
// exploration; positive when stable → convergence. newState is the state
// that followed the action.
//
// (Deviation note, recorded in DESIGN.md: the paper feeds Δh/h as the RL
// reward itself. That signal telescopes to ≈ log-growth of the hit rate and
// carries almost no gradient at steady state, which is workable over the
// paper's 50M-op phases but not at this reproduction's scale; using the
// smoothed hit-rate level as the critic target preserves the optimisation
// objective — long-term hit rate — while converging within hundreds of
// windows.)
func (a *Agent) Update(reward, lrDelta float64, newState []float32) {
	if a.cfg.Frozen || !a.havePrev {
		return
	}
	a.steps++

	// Adaptive learning rate (§3.5), exactly as published.
	a.actorLR *= 1 - lrDelta
	a.actorLR = clampF(a.actorLR, 1e-5, 1e-2)

	// Critic: TD(0) toward r + γV(s').
	vNext := float64(a.critic.Forward(newState)[0])
	target := reward + gamma*vNext
	vPrev := float64(a.critic.Forward(a.prevState)[0])
	tdErr := target - vPrev // advantage estimate
	a.lastCriticLoss = tdErr * tdErr
	// dLoss/dV = V − target  (squared error).
	a.critic.Train([]float32{float32(vPrev - target)}, criticLR)

	// Actor: Gaussian policy gradient in action space. The policy's mean is
	// μ = prior + span·tanh(z), its sample μ + span·ε (clamped only when
	// applied), so logπ = −ε²/2σ² and ∂logπ/∂μ = ε/(span·σ²). Ascend
	// advantage·logπ → descend loss with dL/dμ = −A·ε/(span·σ²), which
	// dμ/d tanh(z) = span carries to the actor's output as −A·ε/σ² (the
	// network applies tanh'), plus the residual's pull toward the prior.
	// Act's forward pass left the actor's activations on prevState, unless
	// something ran the actor since.
	u := a.actorOut
	if u == nil {
		u = a.actor.Forward(a.prevState)
	}
	grad := make([]float32, ActionDim)
	var logPi float64
	for i := range grad {
		std := a.noiseStd(i)
		diff := a.prevNoise[i]
		logPi -= diff * diff / (2 * std * std)
		g := -tdErr * diff / (std * std)
		grad[i] = float32(clampF(g, -10, 10) + residualPull*float64(u[i]))
	}
	a.lastActorLoss = -tdErr * logPi
	// The actor's step ramps up over its first actorWarmup updates. Until
	// the critic has seen about a horizon of windows its TD error is mostly
	// its own bootstrap error rather than an advantage, and Adam's first
	// steps move every output weight by the full learning rate whatever the
	// gradient's size, so at full rate the residual follows its own
	// exploration noise (TestEarlyResidualStaysNearPrior).
	lr := a.actorLR
	if a.steps < actorWarmup {
		lr *= float64(a.steps) / actorWarmup
	}
	a.actor.Train(grad, lr)
	a.actorOut = nil
}

// Losses reports the actor and critic losses of the most recent Update —
// the auditable learning signal the metrics layer exposes per window. Like
// every Agent method it must be called from the tuning goroutine.
func (a *Agent) Losses() (actor, critic float64) {
	return a.lastActorLoss, a.lastCriticLoss
}

// ActorLR reports the current adaptive learning rate.
func (a *Agent) ActorLR() float64 { return a.actorLR }

// Steps reports how many updates have run.
func (a *Agent) Steps() int64 { return a.steps }

// greedy returns the actor's noiseless action for state around prior,
// without recording it.
func (a *Agent) greedy(state []float32, prior Action) Action {
	p := prior.vector()
	mu, _ := a.means(state, p)
	a.actorOut = nil // the actor's activations are state's now
	for i := range mu {
		mu[i] = bound(mu[i], p[i])
	}
	return actionFrom(mu)
}

// NumParams reports total parameters across both networks.
func (a *Agent) NumParams() int { return a.actor.NumParams() + a.critic.NumParams() }

// MemoryBytes reports parameter memory (Table 2's model row).
func (a *Agent) MemoryBytes() int { return a.actor.MemoryBytes() + a.critic.MemoryBytes() }

// TrainingMemoryBytes reports parameter and optimizer memory (training
// keeps no gradient buffers).
func (a *Agent) TrainingMemoryBytes() int {
	return a.actor.TrainingMemoryBytes() + a.critic.TrainingMemoryBytes()
}

func clampF(v, lo, hi float64) float64 {
	switch {
	case v < lo:
		return lo
	case v > hi:
		return hi
	case math.IsNaN(v):
		return lo
	default:
		return v
	}
}
