//go:build race

package graph_test

// raceEnabled reports whether this test binary was built with the race
// detector. AllocsPerRun pins skip under it: instrumentation changes
// allocation counts.
const raceEnabled = true
