//go:build !race

package core

// raceEnabled reports whether the race detector is active; the pins on
// a whole selection loop's allocations or bytes are skipped under -race
// because instrumentation may perturb the counts. The warm-scorer pins
// run there too: an evaluator's free list, unlike the sync.Pool it
// replaced, drops nothing in race mode.
const raceEnabled = false
