//go:build race

package core

// raceEnabled reports a -race build. Its sync.Pool drops buffers at random,
// so an allocation count that relies on a pool does not hold there.
const raceEnabled = true
