//go:build !race

package rl

const adversarialUpdates = 10_000
