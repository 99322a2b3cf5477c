//go:build !race

package reuse

// raceEnabled reports whether the race detector instruments this test
// binary; under it sync.Pool drops released items at random, so a Take
// after a Put need not return the released storage.
const raceEnabled = false
