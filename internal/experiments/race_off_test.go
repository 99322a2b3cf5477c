//go:build !race

package experiments

// raceEnabled reports whether the race detector instruments this test
// binary (its shadow-memory hooks allocate, breaking alloc guards).
const raceEnabled = false
