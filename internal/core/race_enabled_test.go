//go:build race

package core

// raceEnabled reports whether the race detector instruments this test
// binary. Under -race, sync.Pool deliberately drops a share of Put
// items, so pooled paths allocate and allocation counts are not
// meaningful there.
const raceEnabled = true
