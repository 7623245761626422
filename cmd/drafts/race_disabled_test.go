//go:build !race

package main

// raceEnabled reports whether this test binary was built with the race
// detector, whose instrumentation slows the smoke-scale experiments past
// the shape test's time budget.
const raceEnabled = false
