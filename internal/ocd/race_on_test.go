//go:build race

package ocd

// raceEnabled reports a -race build, whose sync.Pool drops items at
// random, so pooled read-plane state is not reliably reused.
const raceEnabled = true
