package core

import (
	"testing"

	"repro/internal/gen"
)

// These tests pin the pooled-workspace allocation wins so later changes
// cannot silently regress them: in the steady state (pool warm) a Howard
// solve allocates at most 1 object per op (the returned critical cycle) and
// a Karp2 solve at most 5. The pins are ceilings on testing.AllocsPerRun,
// which is unreliable under the race detector — hence the raceEnabled skip.

func TestHowardAllocsPerOpPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under -race")
	}
	howard := mustAlgo(t, "howard")
	g, err := gen.Sprand(gen.SprandConfig{N: 200, M: 800, MinWeight: -1000, MaxWeight: 1000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Warm the workspace pool so the measurement sees the steady state.
	if _, err := howard.Solve(g, Options{}); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		if _, err := howard.Solve(g, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 1 {
		t.Errorf("howard allocates %.1f objects/op in steady state, pinned at <= 1", avg)
	}
}

// TestCertifiedHowardAllocsPerOpPinned pins a certified MinimumCycleMean
// with howard on a strongly connected graph: the driver's component and
// result bookkeeping plus the certificate. Howard's fixed-point potentials
// prove the answer in one pass, so no Bellman–Ford distance arrays are
// allocated; the potentials themselves are the one copy Certify adds.
func TestCertifiedHowardAllocsPerOpPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under -race")
	}
	howard := mustAlgo(t, "howard")
	g, err := gen.Sprand(gen.SprandConfig{N: 200, M: 800, MinWeight: -1000, MaxWeight: 1000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Certify: true}
	if _, err := MinimumCycleMean(g, howard, opt); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		if _, err := MinimumCycleMean(g, howard, opt); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 19 {
		t.Errorf("certified howard allocates %.1f objects/op in steady state, pinned at <= 19", avg)
	}
}

func TestMadaniAllocsPerOpPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under -race")
	}
	madani := mustAlgo(t, "madani")
	g, err := gen.Sprand(gen.SprandConfig{N: 200, M: 800, MinWeight: -1000, MaxWeight: 1000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := madani.Solve(g, Options{}); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		if _, err := madani.Solve(g, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 1 {
		t.Errorf("madani allocates %.1f objects/op in steady state, pinned at <= 1", avg)
	}
}

// TestKernelizedDriverAllocsPinned pins that the kernelized mean driver
// allocates Kernelize's working arrays once per worker, not once per
// component. Most of the budget is the contracted-kernel solver's (about 70
// allocations per component). Per-component working arrays would add ten
// more for each of the 16 components, 160 in all, which neither ceiling
// leaves room for.
func TestKernelizedDriverAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under -race")
	}
	howard := mustAlgo(t, "howard")
	g, err := gen.MultiChain(16, gen.ChainConfig{CoreN: 16, Chains: 8, ChainLen: 20, MinWeight: 1, MaxWeight: 1000, SelfLoops: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, pin := range []struct {
		workers int
		ceiling float64
	}{{1, 1300}, {2, 1400}} {
		opt := Options{Kernelize: true, Parallelism: pin.workers}
		if _, err := MaximumCycleMean(g, howard, opt); err != nil {
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(10, func() {
			if _, err := MaximumCycleMean(g, howard, opt); err != nil {
				t.Fatal(err)
			}
		})
		if avg > pin.ceiling {
			t.Errorf("kernelized MaximumCycleMean with %d workers allocates %.1f objects/op, pinned at <= %.0f",
				pin.workers, avg, pin.ceiling)
		}
	}
}

func TestKarp2AllocsPerOpPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under -race")
	}
	karp2 := mustAlgo(t, "karp2")
	g, err := gen.Sprand(gen.SprandConfig{N: 200, M: 800, MinWeight: -1000, MaxWeight: 1000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := karp2.Solve(g, Options{}); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		if _, err := karp2.Solve(g, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 5 {
		t.Errorf("karp2 allocates %.1f objects/op in steady state, pinned at <= 5", avg)
	}
}
