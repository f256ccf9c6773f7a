package ratio

import (
	"testing"

	"repro/internal/core"
)

// TestBHKAllocsPerOpPinned pins the per-solve allocation budget of the
// bound-tightened bisection engine. A bhk solve pays a fixed setup cost —
// the parametric oracle, its pooled workspace lease, and the big-rational
// arithmetic of the grid walk — but none of it may scale past this ceiling:
// the measured steady state on this instance is ~42 objects/op, pinned
// with headroom at 200 so a leaked per-probe allocation (one object per
// Probe call would add hundreds here) fails immediately.
func TestBHKAllocsPerOpPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under -race")
	}
	bhk, err := ByName("bhk")
	if err != nil {
		t.Fatal(err)
	}
	g := stressGraph(t, 5)
	// Warm the oracle workspace pool so the measurement sees the steady state.
	if _, err := MinimumCycleRatio(g, bhk, core.Options{}); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		if _, err := MinimumCycleRatio(g, bhk, core.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 200 {
		t.Errorf("bhk allocates %.1f objects/op in steady state, pinned at <= 200", avg)
	}
}

// TestRatioHowardAllocsPerOpPinned pins ratio howard's per-solve budget. The
// solve runs core's Howard on its pooled workspace, so what remains is the
// driver's component extraction, the input check and the result: about 18
// objects/op on this instance, which takes 14 policy iterations. The ceiling
// of 25 fails on one leaked allocation per iteration.
func TestRatioHowardAllocsPerOpPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under -race")
	}
	howard, err := ByName("howard")
	if err != nil {
		t.Fatal(err)
	}
	g := stressGraph(t, 5)
	// Warm the workspace pool so the measurement sees the steady state.
	if _, err := MinimumCycleRatio(g, howard, core.Options{}); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		if _, err := MinimumCycleRatio(g, howard, core.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 25 {
		t.Errorf("ratio howard allocates %.1f objects/op in steady state, pinned at <= 25", avg)
	}
}
