//go:build race

package tensor

// raceEnabled reports whether the race detector is compiled in; it drops
// sync.Pool entries at random, so allocation counts do not hold under it.
const raceEnabled = true
