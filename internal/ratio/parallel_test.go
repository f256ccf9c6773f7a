package ratio

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// TestRatioParallelEquivalence is the ratio counterpart of core's
// TestParallelDriverMatchesSequential and TestParallelDriverErrors: ratio
// solves run core's component driver, so Options.Parallelism fans their
// components out to the same pool, and the pool must return the sequential
// driver's ρ*, witness cycle and exactness, with and without Kernelize.
// Counts must match too when unkernelized; kernelized, the sequential
// driver prunes components whose kernel bounds cannot beat the incumbent,
// which the pool cannot know.
func TestRatioParallelEquivalence(t *testing.T) {
	algos := []Algorithm{
		mustRatioAlgo(t, "howard"), mustRatioAlgo(t, "sternbrocot"),
		mustRatioAlgo(t, "yto"), mustRatioAlgo(t, "bhk"),
	}
	cases := 0
	for _, k := range []int{2, 3, 5, 8} {
		for _, nPer := range []int{3, 6, 12} {
			for seed := uint64(1); seed <= 10; seed++ {
				g, err := gen.MultiSCC(k, nPer, 3*nPer, seed)
				if err != nil {
					t.Fatal(err)
				}
				g = withTransits(g, 8)
				cases++
				algo := algos[int(seed)%len(algos)]
				for _, kernelize := range []bool{false, true} {
					name := fmt.Sprintf("k=%d nPer=%d seed=%d %s kernelize=%v", k, nPer, seed, algo.Name(), kernelize)
					seq, err := MinimumCycleRatio(g, algo, core.Options{Kernelize: kernelize})
					if err != nil {
						t.Fatalf("%s sequential: %v", name, err)
					}
					for _, par := range []int{2, 4, -1} {
						got, err := MinimumCycleRatio(g, algo, core.Options{Kernelize: kernelize, Parallelism: par})
						if err != nil {
							t.Fatalf("%s parallel=%d: %v", name, par, err)
						}
						if got.Ratio != seq.Ratio || !slices.Equal(got.Cycle, seq.Cycle) || got.Exact != seq.Exact {
							t.Fatalf("%s parallel=%d: (%v, %v, exact=%v) != sequential (%v, %v, exact=%v)",
								name, par, got.Ratio, got.Cycle, got.Exact, seq.Ratio, seq.Cycle, seq.Exact)
						}
						if !kernelize && got.Counts != seq.Counts {
							t.Fatalf("%s parallel=%d: counts %+v != sequential %+v", name, par, got.Counts, seq.Counts)
						}
					}
				}
			}
		}
	}
	if cases < 100 {
		t.Fatalf("only %d multi-SCC graphs exercised, want >= 100", cases)
	}

	// Four components in a chain, the second and the fourth failing
	// differently. Decomposition lists sink components first, so the
	// connecting arcs run from each pair to the one before it: every driver
	// must report the second pair's error, the earliest failing component
	// in decomposition order.
	arcs := []graph.Arc{
		{From: 0, To: 1, Weight: 3, Transit: 1}, {From: 1, To: 0, Weight: 2, Transit: 1},
		{From: 2, To: 3, Weight: 1, Transit: 0}, {From: 3, To: 2, Weight: 1, Transit: 0},
		{From: 4, To: 5, Weight: 5, Transit: 2}, {From: 5, To: 4, Weight: 1, Transit: 2},
		{From: 6, To: 7, Weight: 1, Transit: -1}, {From: 7, To: 6, Weight: 1, Transit: 3},
	}
	for v := 1; v < 7; v += 2 {
		arcs = append(arcs, graph.Arc{From: graph.NodeID(v + 1), To: graph.NodeID(v), Weight: 1, Transit: 1})
	}
	bad := graph.FromArcs(8, arcs)
	howard := algos[0]
	_, seqErr := MinimumCycleRatio(bad, howard, core.Options{})
	if !errors.Is(seqErr, ErrNonPositiveTransit) {
		t.Fatalf("sequential error = %v, want ErrNonPositiveTransit", seqErr)
	}
	for _, kernelize := range []bool{false, true} {
		for _, par := range []int{2, 4, -1} {
			_, err := MinimumCycleRatio(bad, howard, core.Options{Kernelize: kernelize, Parallelism: par})
			if err == nil || err.Error() != seqErr.Error() || !errors.Is(err, ErrNonPositiveTransit) {
				t.Fatalf("kernelize=%v parallel=%d: error %v, want the sequential driver's %v", kernelize, par, err, seqErr)
			}
		}
	}
	if _, err := MinimumCycleRatio(graph.FromArcs(3, []graph.Arc{{From: 0, To: 1, Weight: 1, Transit: 1}}), howard,
		core.Options{Parallelism: 4}); err != ErrAcyclic {
		t.Fatalf("acyclic graph: err = %v, want ErrAcyclic", err)
	}
}
