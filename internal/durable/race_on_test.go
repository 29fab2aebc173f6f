//go:build race

package durable

// raceEnabled: the race detector instruments allocations, so
// testing.AllocsPerRun bounds do not hold under it.
const raceEnabled = true
