//go:build race

package bufpool

// raceEnabled reports whether the race detector instruments this build: under
// it sync.Pool drops a quarter of what is Put, so a round trip cannot be held
// to hand the same buffer back.
const raceEnabled = true
