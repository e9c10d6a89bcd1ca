//go:build !race

package sim_test

// raceEnabled reports whether the race detector instruments this test
// binary; see race_on_test.go.
const raceEnabled = false
