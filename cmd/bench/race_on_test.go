//go:build race

package main

// raceEnabled reports whether the race detector instruments this test
// binary. The smoke test's time budget does not apply under it: the
// detector slows the reference designs by an order of magnitude.
const raceEnabled = true
