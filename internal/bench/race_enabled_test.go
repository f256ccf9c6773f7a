//go:build race

package bench

// raceEnabled reports whether this test binary was built with the race
// detector, whose instrumentation slows the paper-findings sweep severalfold.
const raceEnabled = true
