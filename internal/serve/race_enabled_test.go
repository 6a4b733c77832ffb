//go:build race

package serve

// raceEnabled reports whether the race detector instruments this test
// binary; allocation counts are not meaningful there.
const raceEnabled = true
