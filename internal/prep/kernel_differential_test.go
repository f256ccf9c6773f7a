package prep_test

// External test package: the generation-based differential harness
// (internal/testutil) supplies the instance families and the minimizing
// shrinker; prep's internal tests keep their hand-built fixtures for the
// reduction-by-reduction unit coverage.

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/numeric"
	"repro/internal/prep"
	"repro/internal/testutil"
	"repro/internal/verify"
)

// kernelPipeline runs the full pipeline for one strongly connected graph —
// Kernelize, then the ratio form of core's Howard on whatever is left, as
// the kernelized drivers solve contracted kernels — and returns the optimum
// it proves together with an expanded witness cycle on the original graph.
func kernelPipeline(g *graph.Graph, mode prep.Mode) (numeric.Rat, []graph.ArcID, error) {
	k := prep.Kernelize(g, mode)
	if k.Err != nil {
		return numeric.Rat{}, nil, k.Err
	}
	best, cyc, have := k.CandidateValue, k.CandidateCycle(), k.HasCandidate
	if !k.Solved {
		r, err := core.HowardRatio(k.G, core.Options{})
		if err != nil {
			return numeric.Rat{}, nil, err
		}
		if !have || r.Mean.Less(best) {
			best, cyc, have = r.Mean, k.ExpandCycle(r.Cycle), true
		}
	}
	if !have {
		return numeric.Rat{}, nil, errors.New("pipeline produced no optimum")
	}
	return best, cyc, nil
}

// TestKernelPipelineDifferential is the prep enrollment in the shared
// differential harness: on every exhaustively checkable instance, the
// kernelization pipeline's optimum is bit-identical to brute-force cycle
// enumeration and its expanded witness achieves that value on the original
// graph. Failures are minimized with testutil.Shrink before reporting.
func TestKernelPipelineDifferential(t *testing.T) {
	modes := []struct {
		name   string
		mode   prep.Mode
		gen    func(testing.TB, func(string, *graph.Graph))
		oracle func(*graph.Graph) (numeric.Rat, []graph.ArcID, error)
		value  func(*graph.Graph, []graph.ArcID) (numeric.Rat, bool)
	}{
		{
			"mean", prep.Mean, testutil.SmallMeanGraphs, verify.BruteForceMinMean,
			func(g *graph.Graph, cyc []graph.ArcID) (numeric.Rat, bool) {
				return numeric.NewRat(g.CycleWeight(cyc), int64(len(cyc))), true
			},
		},
		{
			"ratio", prep.Ratio, testutil.SmallRatioGraphs, verify.BruteForceMinRatio,
			func(g *graph.Graph, cyc []graph.ArcID) (numeric.Rat, bool) {
				tr := g.CycleTransit(cyc)
				if tr <= 0 {
					return numeric.Rat{}, false
				}
				return numeric.NewRat(g.CycleWeight(cyc), tr), true
			},
		},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			disagrees := func(g *graph.Graph) bool {
				if !graph.IsStronglyConnected(g) {
					return false
				}
				want, _, err1 := m.oracle(g)
				got, _, err2 := kernelPipeline(g, m.mode)
				return err1 == nil && err2 == nil && !got.Equal(want)
			}
			m.gen(t, func(name string, g *graph.Graph) {
				want, _, err := m.oracle(g)
				if err != nil {
					t.Fatalf("%s: oracle: %v", name, err)
				}
				got, cyc, err := kernelPipeline(g, m.mode)
				if err != nil {
					t.Errorf("%s: pipeline: %v", name, err)
					return
				}
				if !got.Equal(want) {
					small := testutil.Shrink(g, disagrees)
					t.Errorf("%s: pipeline = %v, brute force = %v; minimized:\n%s",
						name, got, want,
						testutil.FormatCrasher(small, fmt.Sprintf("go test -run 'KernelPipelineDifferential/%s' ./internal/prep/", m.name)))
					return
				}
				if err := g.ValidateCycle(cyc); err != nil {
					t.Errorf("%s: expanded cycle invalid: %v", name, err)
					return
				}
				if v, ok := m.value(g, cyc); !ok || !v.Equal(want) {
					t.Errorf("%s: expanded cycle value %v != optimum %v", name, v, want)
				}
			})
		})
	}
}

// TestSolveKernelMatchesBruteForce: on random small strongly connected
// graphs with transits 1..3 (the ratio form contracted Mean kernels carry),
// the contracted-kernel solve — core's Howard in ratio form — must match
// exhaustive enumeration exactly and return a cycle attaining it.
func TestSolveKernelMatchesBruteForce(t *testing.T) {
	for seed := uint64(0); seed < 30; seed++ {
		g, err := gen.Sprand(gen.SprandConfig{N: 7, M: 18, MinWeight: -30, MaxWeight: 30, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		// Assign transits 1..3 deterministically; drop self-loops (a kernel
		// never has them).
		var arcs []graph.Arc
		for i, a := range g.Arcs() {
			if a.From == a.To {
				continue
			}
			a.Transit = int64(i%3 + 1)
			arcs = append(arcs, a)
		}
		kg := graph.FromArcs(g.NumNodes(), arcs)
		if !graph.IsStronglyConnected(kg) {
			continue
		}
		want, _, err := verify.BruteForceMinRatio(kg)
		if err != nil {
			continue
		}
		r, err := core.HowardRatio(kg, core.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !r.Mean.Equal(want) {
			t.Errorf("seed %d: kernel solve = %v, brute force = %v", seed, r.Mean, want)
		}
		if err := kg.ValidateCycle(r.Cycle); err != nil {
			t.Errorf("seed %d: returned cycle invalid: %v", seed, err)
		}
		w, tr := kg.CycleWeight(r.Cycle), kg.CycleTransit(r.Cycle)
		if !numeric.NewRat(w, tr).Equal(want) {
			t.Errorf("seed %d: cycle value %d/%d != %v", seed, w, tr, want)
		}
	}
}

// TestKernelizeEndToEndMean: on chain-heavy graphs the full pipeline,
// min(candidate, kernel solve), must equal the brute-force optimum, every
// kernel arc must expand to a matching path, and the expanded cycle must
// achieve the optimum on the original graph.
func TestKernelizeEndToEndMean(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		g, err := gen.Chain(gen.ChainConfig{CoreN: 5, Chains: 3, ChainLen: 5, MinWeight: -15, MaxWeight: 15, SelfLoops: 1, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := verify.BruteForceMinMean(g)
		if err != nil {
			t.Fatal(err)
		}
		prep.CheckExpansion(t, g, prep.Kernelize(g, prep.Mean), prep.Mean)
		best, cyc, err := kernelPipeline(g, prep.Mean)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !best.Equal(want) {
			t.Errorf("seed %d: kernel pipeline = %v, want %v", seed, best, want)
			continue
		}
		if err := g.ValidateCycle(cyc); err != nil {
			t.Errorf("seed %d: expanded cycle invalid: %v", seed, err)
			continue
		}
		w := g.CycleWeight(cyc)
		if !numeric.NewRat(w, int64(len(cyc))).Equal(want) {
			t.Errorf("seed %d: expanded cycle mean %d/%d != %v", seed, w, len(cyc), want)
		}
	}
}
