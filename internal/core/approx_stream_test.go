package core_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/testutil"
)

// TestApproxStreamSmoke streams a 10⁶-arc SPRAND graph through
// MinimumCycleMeanStream and checks the approximation tier's three claims:
// the streaming solve's peak heap stays under 32 MiB, its certified interval
// is no wider than ε·max(1, |value|) and brackets the exact λ* of a
// materialized Howard solve, and the streaming peak is at least 10× below
// the exact solve's (measured about 120×).
func TestApproxStreamSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("streams 10⁶ arcs and solves them exactly; takes a few seconds")
	}
	const (
		eps     = 0.02
		heapCap = 32 << 20
		slack   = 1e-9
	)
	src, err := gen.NewSprandSource(gen.SprandConfig{N: 1 << 14, M: 1 << 20, MinWeight: 1, MaxWeight: 10000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if src.NumArcs() < 1_000_000 {
		t.Fatalf("smoke graph has %d arcs, want >= 10^6", src.NumArcs())
	}

	w := testutil.WatchHeap()
	res, err := core.MinimumCycleMeanStream(src, core.Options{Approx: core.ApproxOptions{Epsilon: eps, Mode: "chkl"}})
	peak := w.Peak()
	if err != nil {
		t.Fatal(err)
	}
	value := res.Mean.Float64()
	if tol := eps * math.Max(1, math.Abs(value)); res.ErrorBound > tol*(1+slack) {
		t.Errorf("error bound %g exceeds the promised tolerance %g", res.ErrorBound, tol)
	}
	if peak > heapCap {
		t.Errorf("streaming peak heap %d bytes exceeds the %d-byte cap", peak, heapCap)
	}

	we := testutil.WatchHeap()
	g, err := graph.Materialize(src)
	if err != nil {
		t.Fatal(err)
	}
	howard, err := core.ByName("howard")
	if err != nil {
		t.Fatal(err)
	}
	exact, err := core.MinimumCycleMean(g, howard, core.Options{})
	exactPeak := we.Peak()
	if err != nil {
		t.Fatal(err)
	}
	lambda := exact.Mean.Float64()
	if lambda == 0 {
		t.Fatal("exact λ* is 0 on weights in [1, 10000]")
	}
	if lambda > value+slack || lambda < value-res.ErrorBound-slack {
		t.Errorf("exact λ* %g outside the certified interval [%g, %g]", lambda, value-res.ErrorBound, value)
	}
	if exactPeak < 10*peak {
		t.Errorf("streaming peak %d not clearly below exact peak %d", peak, exactPeak)
	}
	t.Logf("λ* %g in [%g, %g]; peak heap %.1f MiB streamed, %.1f MiB exact",
		lambda, value-res.ErrorBound, value, float64(peak)/(1<<20), float64(exactPeak)/(1<<20))
}
