package core

import (
	"testing"

	"repro/internal/graph"
)

// TestRatioBiasEpsilonScales pins the derivation of Howard's default bias
// threshold: it grows linearly with the transit range, so ratio-form bias
// comparisons stay above float round-off, and a mean solve (maxT = 1) gets
// 1e-10·max|w|.
func TestRatioBiasEpsilonScales(t *testing.T) {
	mk := func(w, tr int64) *graph.Graph {
		return graph.FromArcs(2, []graph.Arc{
			{From: 0, To: 1, Weight: w, Transit: tr},
			{From: 1, To: 0, Weight: -w, Transit: 1},
		})
	}
	small := howardEpsilon(mk(10, 1), 1)
	bigT := howardEpsilon(mk(10, 1_000_000), 1_000_000)
	if bigT <= small {
		t.Errorf("eps must grow with the transit range: eps(t=1)=%g, eps(t=1e6)=%g", small, bigT)
	}
	if got, want := bigT/small, 1_000_000.0; got < want*0.9 || got > want*1.1 {
		t.Errorf("eps should scale linearly with maxT: ratio %g, want ~%g", got, want)
	}
	if got, want := small, 1e-10*10; got != want {
		t.Errorf("mean threshold = %g, want 1e-10·max|w| = %g", got, want)
	}
}
