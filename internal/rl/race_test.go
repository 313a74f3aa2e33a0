//go:build race

package rl

// adversarialUpdates is shorter under the race detector, which slows the
// networks' float loops about fifteenfold; tier-1 runs the full 10⁴.
const adversarialUpdates = 1_000
