package core

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/numeric"
)

// The corpus-wide kernel equivalence gate (TestKernelEquivalenceMean) lives
// in corpus_equivalence_test.go (package core_test) on the shared
// testutil.MeanCorpus; the tests here cover driver paths that need nothing
// beyond the exported API but predate the shared harness.

// TestKernelEquivalenceParallel checks the parallel driver's kernelized
// path: same λ* and a valid original-ID cycle, for multi-SCC inputs where
// components actually fan out.
func TestKernelEquivalenceParallel(t *testing.T) {
	howard := mustAlgo(t, "howard")
	for seed := uint64(0); seed < 8; seed++ {
		g, err := gen.MultiSCC(6, 20, 50, seed)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := MinimumCycleMean(g, howard, Options{})
		if err != nil {
			t.Fatal(err)
		}
		kr, err := MinimumCycleMean(g, howard, Options{Kernelize: true, Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !kr.Mean.Equal(raw.Mean) {
			t.Errorf("seed %d: parallel kernelized λ* = %v, raw = %v", seed, kr.Mean, raw.Mean)
		}
		if err := g.ValidateCycle(kr.Cycle); err != nil {
			t.Errorf("seed %d: cycle invalid: %v", seed, err)
		}
		if mean := numeric.NewRat(g.CycleWeight(kr.Cycle), int64(len(kr.Cycle))); !mean.Equal(kr.Mean) {
			t.Errorf("seed %d: cycle mean %v != λ* %v", seed, mean, kr.Mean)
		}
	}
}

// TestKernelEquivalenceMaximum covers the negation path (MaximumCycleMean
// kernelizes the negated graph).
func TestKernelEquivalenceMaximum(t *testing.T) {
	howard := mustAlgo(t, "howard")
	for seed := uint64(0); seed < 5; seed++ {
		g, err := gen.Chain(gen.ChainConfig{CoreN: 6, Chains: 4, ChainLen: 20, MinWeight: -30, MaxWeight: 30, SelfLoops: 1, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		raw, err := MaximumCycleMean(g, howard, Options{})
		if err != nil {
			t.Fatal(err)
		}
		kr, err := MaximumCycleMean(g, howard, Options{Kernelize: true})
		if err != nil {
			t.Fatal(err)
		}
		if !kr.Mean.Equal(raw.Mean) {
			t.Errorf("seed %d: kernelized max mean %v, raw %v", seed, kr.Mean, raw.Mean)
		}
	}
}

// TestKernelizeChainsRelaxFewerArcs is kernelization's claim on the
// chain-heavy family it exists for, as a count: on three gen.Chain shapes
// (up to 64 core nodes with 128 chains of 200 nodes), a kernelized Howard
// solve returns the raw λ* and relaxes strictly fewer arcs (measured 265–2 007
// against 13 860–258 400). Iterations are not compared: a kernelized solve
// sometimes takes more of them (11 vs 9), each over a far smaller graph.
func TestKernelizeChainsRelaxFewerArcs(t *testing.T) {
	howard := mustAlgo(t, "howard")
	for _, cfg := range []gen.ChainConfig{
		{CoreN: 16, Chains: 32, ChainLen: 60, MinWeight: 1, MaxWeight: 10000, SelfLoops: 4},
		{CoreN: 32, Chains: 64, ChainLen: 120, MinWeight: 1, MaxWeight: 10000, SelfLoops: 8},
		{CoreN: 64, Chains: 128, ChainLen: 200, MinWeight: 1, MaxWeight: 10000, SelfLoops: 16},
	} {
		for cfg.Seed = 1; cfg.Seed <= 3; cfg.Seed++ {
			g, err := gen.Chain(cfg)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := MinimumCycleMean(g, howard, Options{})
			if err != nil {
				t.Fatal(err)
			}
			kr, err := MinimumCycleMean(g, howard, Options{Kernelize: true})
			if err != nil {
				t.Fatal(err)
			}
			if !kr.Mean.Equal(raw.Mean) {
				t.Errorf("core %d seed %d: kernelized λ* = %v, raw = %v", cfg.CoreN, cfg.Seed, kr.Mean, raw.Mean)
			}
			if kr.Counts.Relaxations >= raw.Counts.Relaxations {
				t.Errorf("core %d seed %d: kernelized solve relaxed %d arcs, raw %d",
					cfg.CoreN, cfg.Seed, kr.Counts.Relaxations, raw.Counts.Relaxations)
			}
		}
	}
}

// TestKernelBoundsFeedLawler pins the bound-sharpening integration: a
// kernelized Lawler solve must not probe more than the raw solve on
// chain-heavy graphs (the kernel bounds can only shrink its bracket) and
// must agree exactly.
func TestKernelBoundsFeedLawler(t *testing.T) {
	lawler := mustAlgo(t, "lawler")
	for seed := uint64(0); seed < 5; seed++ {
		g, err := gen.Chain(gen.ChainConfig{CoreN: 10, Chains: 5, ChainLen: 15, MinWeight: -100, MaxWeight: 100, SelfLoops: 3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		raw, err := MinimumCycleMean(g, lawler, Options{})
		if err != nil {
			t.Fatal(err)
		}
		kr, err := MinimumCycleMean(g, lawler, Options{Kernelize: true})
		if err != nil {
			t.Fatal(err)
		}
		if !kr.Mean.Equal(raw.Mean) {
			t.Fatalf("seed %d: λ* mismatch: %v vs %v", seed, kr.Mean, raw.Mean)
		}
		if kr.Counts.Iterations > raw.Counts.Iterations {
			t.Errorf("seed %d: kernelized Lawler probed %d times, raw %d — bounds made it worse",
				seed, kr.Counts.Iterations, raw.Counts.Iterations)
		}
	}
}

// TestLawlerExplicitBounds drives Options.LambdaLower/LambdaUpper directly,
// including the λ* == Upper edge case the +2 grid slack exists for.
func TestLawlerExplicitBounds(t *testing.T) {
	lawler := mustAlgo(t, "lawler")
	for seed := uint64(0); seed < 10; seed++ {
		g, err := gen.Sprand(gen.SprandConfig{N: 20, M: 60, MinWeight: -50, MaxWeight: 50, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := lawler.Solve(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		cases := []struct {
			name   string
			lo, hi numeric.Rat
		}{
			{"tight", ref.Mean, ref.Mean}, // λ* == Lower == Upper exactly
			{"loose", numeric.NewRat(ref.Mean.Num()-ref.Mean.Den()*10, ref.Mean.Den()), numeric.NewRat(ref.Mean.Num()+ref.Mean.Den()*10, ref.Mean.Den())},
			{"upper-only", numeric.FromInt(-50), ref.Mean},
		}
		for _, tc := range cases {
			lo, hi := tc.lo, tc.hi
			got, err := lawler.Solve(g, Options{LambdaLower: &lo, LambdaUpper: &hi})
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, tc.name, err)
			}
			if !got.Mean.Equal(ref.Mean) {
				t.Errorf("seed %d %s: bounded Lawler = %v, want %v", seed, tc.name, got.Mean, ref.Mean)
			}
			if err := g.ValidateCycle(got.Cycle); err != nil {
				t.Errorf("seed %d %s: %v", seed, tc.name, err)
			}
		}
	}
}

// TestKernelEquivalenceWeightRange pins that kernelization does not widen
// the input contract: weights beyond ±(2^31−1) must yield ErrWeightRange
// exactly as a raw solve does, even when the closed-form candidate or the
// cross-SCC pruning bound could have answered without running a solver.
func TestKernelEquivalenceWeightRange(t *testing.T) {
	howard := mustAlgo(t, "howard")
	over := int64(MaxWeightMagnitude) + 1

	// Single component collapsing entirely to a closed-form candidate.
	single := graph.FromArcs(2, []graph.Arc{
		{From: 0, To: 1, Weight: over, Transit: 1},
		{From: 1, To: 0, Weight: 0, Transit: 1},
	})
	// Multi-SCC: a small in-range component first, so the out-of-range one
	// is a pruning target (its bound cannot beat the incumbent mean 1).
	multi := graph.FromArcs(4, []graph.Arc{
		{From: 0, To: 1, Weight: 1, Transit: 1},
		{From: 1, To: 0, Weight: 1, Transit: 1},
		{From: 2, To: 3, Weight: over, Transit: 1},
		{From: 3, To: 2, Weight: over, Transit: 1},
	})
	for name, g := range map[string]*graph.Graph{"single": single, "multi": multi} {
		if _, err := MinimumCycleMean(g, howard, Options{}); !errors.Is(err, ErrWeightRange) {
			t.Errorf("%s raw: err = %v, want ErrWeightRange", name, err)
		}
		if _, err := MinimumCycleMean(g, howard, Options{Kernelize: true}); !errors.Is(err, ErrWeightRange) {
			t.Errorf("%s kernelized: err = %v, want ErrWeightRange", name, err)
		}
		if _, err := MinimumCycleMean(g, howard, Options{Kernelize: true, Parallelism: 4}); !errors.Is(err, ErrWeightRange) {
			t.Errorf("%s kernelized parallel: err = %v, want ErrWeightRange", name, err)
		}
	}
}

// TestKernelEquivalenceComponentOrder: node 0 is a chain node and Tarjan's
// first root, and both components have λ* = 2, so the merge's tie-break
// shows their order. Every kernelized mode must find them in
// graph.CyclicComponents order and report the first one's witness, as the
// raw solve does.
func TestKernelEquivalenceComponentOrder(t *testing.T) {
	g := graph.FromArcs(5, []graph.Arc{
		{From: 1, To: 2, Weight: 1, Transit: 1}, {From: 1, To: 2, Weight: 2, Transit: 1},
		{From: 2, To: 1, Weight: 3, Transit: 1}, {From: 3, To: 0, Weight: 1, Transit: 1},
		{From: 0, To: 4, Weight: 2, Transit: 1}, {From: 4, To: 3, Weight: 3, Transit: 1},
		{From: 4, To: 3, Weight: 7, Transit: 1},
	})
	want := []graph.ArcID{5, 3, 4}
	for _, name := range []string{"howard", "karp", "lawler", "madani"} {
		algo := mustAlgo(t, name)
		for _, workers := range []int{1, 2, 4} {
			for _, certify := range []bool{false, true} {
				opt := Options{Kernelize: true, Parallelism: workers, Certify: certify}
				r, err := MinimumCycleMean(g, algo, opt)
				if err != nil {
					t.Fatalf("%s %+v: %v", name, opt, err)
				}
				if !r.Mean.Equal(numeric.FromInt(2)) || !reflect.DeepEqual(r.Cycle, want) {
					t.Errorf("%s workers=%d certify=%v: λ* %v witness %v, want 2 %v", name, workers, certify, r.Mean, r.Cycle, want)
				}
			}
		}
	}
}
