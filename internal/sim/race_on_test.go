//go:build race

package sim_test

// raceEnabled reports whether the race detector instruments this test
// binary. Under it sync.Pool drops a random quarter of the buffers put
// back, so a run may allocate fresh collection buffers.
const raceEnabled = true
