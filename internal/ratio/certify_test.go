package ratio

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/verify"
)

func mustRatioAlgo(t *testing.T, name string) Algorithm {
	t.Helper()
	a, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestCertifyRatioMatchesBruteForce proves the ratio certificate
// independently on enumerable graphs.
func TestCertifyRatioMatchesBruteForce(t *testing.T) {
	howard := mustRatioAlgo(t, "howard")
	for seed := uint64(0); seed < 10; seed++ {
		g, err := gen.Sprand(gen.SprandConfig{N: 8, M: 20, MinWeight: -50, MaxWeight: 50, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		g = withTransits(g, 4)
		res, err := MinimumCycleRatio(g, howard, core.Options{Certify: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Certificate == nil {
			t.Fatalf("seed %d: no certificate", seed)
		}
		want, _, err := verify.BruteForceMinRatio(g)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Ratio.Equal(want) {
			t.Errorf("seed %d: certified ρ* = %v, brute force = %v", seed, res.Ratio, want)
		}
		if err := verify.CheckRatioCycleIsOptimal(g, res.Certificate.Value, res.Certificate.Witness); err != nil {
			t.Errorf("seed %d: certificate fails independent check: %v", seed, err)
		}
	}
}

// TestCertifyRatioEpsilonModeSnaps certifies an approximate (epsilon-mode)
// Lawler run: the reported value is inexact, certification snaps it to the
// exact ρ* and proves it.
func TestCertifyRatioEpsilonModeSnaps(t *testing.T) {
	lawler := mustRatioAlgo(t, "lawler")
	howard := mustRatioAlgo(t, "howard")
	for seed := uint64(0); seed < 8; seed++ {
		g, err := gen.Sprand(gen.SprandConfig{N: 8, M: 20, MinWeight: -30, MaxWeight: 30, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		g = withTransits(g, 3)
		exact, err := MinimumCycleRatio(g, howard, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := MinimumCycleRatio(g, lawler, core.Options{Epsilon: 1e-9, Certify: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Exact || res.Certificate == nil || !res.Certificate.Snapped {
			t.Errorf("seed %d: want exact snapped certificate, got exact=%v cert=%+v", seed, res.Exact, res.Certificate)
		}
		if !res.Ratio.Equal(exact.Ratio) {
			t.Errorf("seed %d: certified ρ* = %v, exact = %v", seed, res.Ratio, exact.Ratio)
		}
	}
}

// TestCertifyRatioMaximum pins the negation path for ratios.
func TestCertifyRatioMaximum(t *testing.T) {
	howard := mustRatioAlgo(t, "howard")
	for seed := uint64(0); seed < 5; seed++ {
		g, err := gen.Sprand(gen.SprandConfig{N: 8, M: 20, MinWeight: -50, MaxWeight: 50, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		g = withTransits(g, 4)
		res, err := MaximumCycleRatio(g, howard, core.Options{Certify: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Certificate == nil || !res.Certificate.Maximize {
			t.Fatalf("seed %d: want a maximization certificate, got %+v", seed, res.Certificate)
		}
		if !res.Certificate.Value.Equal(res.Ratio) {
			t.Errorf("seed %d: certificate value %v != ratio %v", seed, res.Certificate.Value, res.Ratio)
		}
	}
}

// TestRatioHowardLargeTransits is the epsilon-derivation regression: with
// transit times dwarfing weights the bias values reach magnitude
// |w|max·tmax, and an eps derived from the weight range alone is smaller
// than the float round-off of those biases — policy iteration then churns on
// noise until the iteration limit. The transit-aware eps must converge and
// agree with brute force.
func TestRatioHowardLargeTransits(t *testing.T) {
	howard := mustRatioAlgo(t, "howard")
	for seed := uint64(0); seed < 8; seed++ {
		g, err := gen.Sprand(gen.SprandConfig{N: 10, M: 30, MinWeight: -9, MaxWeight: 9, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		arcs := append([]graph.Arc(nil), g.Arcs()...)
		for i := range arcs {
			// Transits up to ~10^8, six orders of magnitude above the weights.
			arcs[i].Transit = 1 + (int64(i)*37417+int64(seed)*104729)%100_000_000
		}
		tg := graph.FromArcs(g.NumNodes(), arcs)
		res, err := MinimumCycleRatio(tg, howard, core.Options{Certify: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want, _, err := verify.BruteForceMinRatio(tg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Ratio.Equal(want) {
			t.Errorf("seed %d: ρ* = %v, brute force = %v", seed, res.Ratio, want)
		}
	}
}

// TestExpandResolvesInnerLazily pins the init-panic fix: the registered
// "expand" algorithm carries no inner solver until Solve, and solving still
// works end to end.
func TestExpandResolvesInnerLazily(t *testing.T) {
	expand := mustRatioAlgo(t, "expand")
	if got := expand.Name(); got != "expand-howard" {
		t.Errorf("Name() = %q, want expand-howard", got)
	}
	g := graph.FromArcs(3, []graph.Arc{
		{From: 0, To: 1, Weight: 2, Transit: 2},
		{From: 1, To: 2, Weight: 4, Transit: 1},
		{From: 2, To: 0, Weight: 3, Transit: 3},
	})
	res, err := MinimumCycleRatio(g, expand, core.Options{Certify: true})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := verify.BruteForceMinRatio(g)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ratio.Equal(want) {
		t.Errorf("expand ρ* = %v, want %v", res.Ratio, want)
	}
}

// TestRatioNumericRangeTyped drives ratio solves into overflow territory and
// demands the typed error, never a panic.
func TestRatioNumericRangeTyped(t *testing.T) {
	big := int64(core.MaxWeightMagnitude)
	g := graph.FromArcs(2, []graph.Arc{
		{From: 0, To: 1, Weight: big, Transit: big},
		{From: 1, To: 0, Weight: -big, Transit: big},
	})
	for _, name := range Names() {
		algo := mustRatioAlgo(t, name)
		res, err := MinimumCycleRatio(g, algo, core.Options{})
		if err != nil {
			if !errors.Is(err, ErrNumericRange) && !errors.Is(err, core.ErrNumericRange) &&
				!errors.Is(err, core.ErrWeightRange) && !errors.Is(err, ErrIterationLimit) {
				t.Errorf("%s: err = %v, want a typed error", name, err)
			}
			continue
		}
		if res.Ratio.Den() == 0 {
			t.Errorf("%s: zero-denominator ratio", name)
		}
	}
}
