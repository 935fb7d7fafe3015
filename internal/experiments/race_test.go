//go:build race

package experiments

// raceEnabled reports whether the race detector is on; it multiplies
// heap allocations, so allocation bounds are skipped under it.
const raceEnabled = true
