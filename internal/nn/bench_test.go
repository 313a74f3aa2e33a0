package nn

import (
	"math/rand"
	"testing"
)

// The controller's networks (rl.StateDim, rl.HiddenDim, rl.ActionDim): 13
// state features, two hidden layers of 256, a Tanh actor with 4 outputs and
// a Linear critic with 1.
func controllerNets() (actor, critic *MLP, state []float32) {
	rng := rand.New(rand.NewSource(1))
	actor = NewMLP([]int{13, 256, 256, 4}, ReLU, Tanh, rng)
	critic = NewMLP([]int{13, 256, 256, 1}, ReLU, Linear, rng)
	state = make([]float32, 13)
	for i := range state {
		if i%3 != 0 { // a third of the features idle, as on a read-only mix
			state[i] = float32(rng.Float64())
		}
	}
	return actor, critic, state
}

func BenchmarkForward(b *testing.B) {
	actor, _, x := controllerNets()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		actor.Forward(x)
	}
}

func BenchmarkTrain(b *testing.B) {
	actor, _, x := controllerNets()
	actor.Forward(x)
	grad := []float32{0.01, 0.01, 0.01, 0.01}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		actor.Train(grad, 1e-3)
	}
}

// BenchmarkControlStep measures one tuning window's network work, as
// rl.Agent does it: the actor's forward pass to act, two critic forwards,
// then one training step for each network, the actor's on the activations
// it acted on. About 0.8 ms on a 2-core Xeon VM (1.1 ms for a two-pass
// backward + Adam with a second actor forward): close to 1 µs per
// operation of a 1,000-operation window, not negligible next to a
// range-cache hit, which is why the step runs off the request path in
// asynchronous mode.
func BenchmarkControlStep(b *testing.B) {
	actor, critic, x := controllerNets()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		actor.Forward(x)
		critic.Forward(x)
		critic.Forward(x)
		critic.Train([]float32{0.1}, 1e-3)
		actor.Train([]float32{0.01, 0.01, 0.01, 0.01}, 1e-3)
	}
}
