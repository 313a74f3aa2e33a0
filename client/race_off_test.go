//go:build !race

package client

// raceEnabled reports whether the race detector is active. The race
// runtime allocates on its own, so allocation pins only assert without it.
const raceEnabled = false
