//go:build race

package minibatch

// raceEnabled reports whether the race detector is compiled in; it drops
// sync.Pool entries at random, so allocation budgets do not hold under it.
const raceEnabled = true
