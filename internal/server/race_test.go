//go:build race

package server

// raceEnabled reports a -race build. Its sync.Pool drops held runs at
// random, so an allocation count that relies on a held run does not hold
// there.
const raceEnabled = true
