//go:build !race

package baselines

// raceEnabled reports whether this test binary was built with the race
// detector, whose instrumentation slows the single-goroutine fits roughly
// tenfold.
const raceEnabled = false
