//go:build !race

package minibatch

const raceEnabled = false
