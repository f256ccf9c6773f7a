package ratio

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// withTransits reassigns deterministic transit times in [1, k] so mean-family
// generators produce genuine ratio instances. (The exported twin is
// testutil.WithTransits; this copy exists because internal test files cannot
// import testutil — it imports ratio.)
func withTransits(g *graph.Graph, k int64) *graph.Graph {
	arcs := append([]graph.Arc(nil), g.Arcs()...)
	for i := range arcs {
		arcs[i].Transit = int64(i)%k + 1
	}
	return graph.FromArcs(g.NumNodes(), arcs)
}

// The corpus-wide kernel equivalence gate (TestKernelEquivalenceRatio) lives
// in corpus_equivalence_test.go (package ratio_test) on the shared
// testutil.RatioCorpus; the zero-transit edge cases below need nothing from
// the shared corpus.

// TestKernelEquivalenceRatioZeroTransit pins the conservative paths: graphs
// with zero-transit arcs must solve identically (bounds are disabled but the
// reductions stay exact), and unsupported inputs must fall back cleanly.
func TestKernelEquivalenceRatioZeroTransit(t *testing.T) {
	howard, err := ByName("howard")
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < 5; seed++ {
		g, err := gen.Sprand(gen.SprandConfig{N: 15, M: 45, MinWeight: -100, MaxWeight: 100, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		arcs := append([]graph.Arc(nil), g.Arcs()...)
		for i := range arcs {
			arcs[i].Transit = int64(i % 3) // every third arc gets transit 0
		}
		zg := graph.FromArcs(g.NumNodes(), arcs)
		raw, rawErr := MinimumCycleRatio(zg, howard, core.Options{})
		kr, krErr := MinimumCycleRatio(zg, howard, core.Options{Kernelize: true})
		if (rawErr == nil) != (krErr == nil) {
			t.Fatalf("seed %d: error disagreement: raw=%v kernelized=%v", seed, rawErr, krErr)
		}
		if rawErr != nil {
			continue // both reject (e.g. a zero-transit cycle exists)
		}
		if !kr.Ratio.Equal(raw.Ratio) {
			t.Errorf("seed %d: kernelized ρ* = %v, raw = %v", seed, kr.Ratio, raw.Ratio)
		}
	}
}

// TestKernelEquivalenceRatioSumOverflow: a cycle whose weight sum leaves
// int64 is unsupported by the kernel, so a kernelized solve reports what the
// raw solve reports, for every engine, certified or not — not the wrapped
// sum's ratio. Either way the error is ErrNumericRange, expand's included
// (its inner mean solver rejects the weights with core.ErrWeightRange, which
// the error also still matches).
func TestKernelEquivalenceRatioSumOverflow(t *testing.T) {
	const w = int64(1) << 62
	g := graph.FromArcs(3, []graph.Arc{
		{From: 0, To: 1, Weight: w, Transit: 1},
		{From: 1, To: 2, Weight: w, Transit: 1},
		{From: 2, To: 0, Weight: w, Transit: 1},
	})
	for _, name := range Names() {
		algo, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, certify := range []bool{false, true} {
			for _, workers := range []int{1, 2} {
				_, rawErr := MinimumCycleRatio(g, algo, core.Options{Certify: certify})
				kr, krErr := MinimumCycleRatio(g, algo, core.Options{Kernelize: true, Certify: certify, Parallelism: workers})
				if rawErr == nil || krErr == nil || rawErr.Error() != krErr.Error() {
					t.Errorf("%s certify=%v workers=%d: raw error %v, kernelized error %v (ρ* %v, cycle %v)",
						name, certify, workers, rawErr, krErr, kr.Ratio, kr.Cycle)
				}
				if !errors.Is(rawErr, ErrNumericRange) || !errors.Is(krErr, ErrNumericRange) {
					t.Errorf("%s certify=%v workers=%d: raw error %v, kernelized error %v, want ErrNumericRange",
						name, certify, workers, rawErr, krErr)
				}
				if name == "expand" && (!errors.Is(rawErr, core.ErrWeightRange) || !errors.Is(krErr, core.ErrWeightRange)) {
					t.Errorf("expand certify=%v workers=%d: raw error %v, kernelized error %v, want core.ErrWeightRange too",
						certify, workers, rawErr, krErr)
				}
			}
		}
	}
}
