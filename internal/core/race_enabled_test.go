//go:build race

package core

// raceEnabled reports whether this test binary was built with the race
// detector, whose instrumentation slows the single-goroutine predictor
// scans roughly tenfold.
const raceEnabled = true
