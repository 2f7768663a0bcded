//go:build race

package migrate

// raceEnabled reports whether the race detector instruments this build; its
// shadow-memory bookkeeping allocates, so AllocsPerRun assertions skip.
const raceEnabled = true
