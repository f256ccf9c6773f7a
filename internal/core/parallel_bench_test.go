package core

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// benchMultiSCC builds the 8-component graph shared by the driver benchmarks.
func benchMultiSCC(b *testing.B) *graph.Graph {
	b.Helper()
	g, err := gen.MultiSCC(8, 300, 900, 42)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func benchDriver(b *testing.B, parallelism int) {
	g := benchMultiSCC(b)
	opt := Options{Parallelism: parallelism}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MinimumCycleMean(g, howardAlg{}, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveSequentialSCC is the baseline for the parallel-driver
// speedup claim: Howard over 8 strongly connected components, one at a time.
func BenchmarkSolveSequentialSCC(b *testing.B) { benchDriver(b, 1) }

// BenchmarkSolveParallelSCC runs the same workload through the concurrent
// component driver with four workers. On a multi-core machine this should be
// >1.5× faster than BenchmarkSolveSequentialSCC; on a single-core machine the
// two are expected to tie (the pool adds only scheduling overhead).
func BenchmarkSolveParallelSCC(b *testing.B) { benchDriver(b, 4) }

func benchHoward(b *testing.B, pooled bool) {
	g, err := gen.Sprand(gen.SprandConfig{N: 512, M: 2048, MinWeight: -100, MaxWeight: 100, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	if !pooled {
		disableWorkspacePools.Store(true)
		defer disableWorkspacePools.Store(false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (howardAlg{}).Solve(g, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHowardFresh solves with workspace pooling disabled, so every
// iteration re-allocates all solver scratch — the pre-pooling behaviour.
func BenchmarkHowardFresh(b *testing.B) { benchHoward(b, false) }

// BenchmarkHowardReuse solves with the sync.Pool workspaces active; repeated
// solves should allocate close to nothing beyond the returned cycle.
func BenchmarkHowardReuse(b *testing.B) { benchHoward(b, true) }

func benchKarp(b *testing.B, pooled bool) {
	g, err := gen.Sprand(gen.SprandConfig{N: 256, M: 1024, MinWeight: -100, MaxWeight: 100, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	if !pooled {
		disableWorkspacePools.Store(true)
		defer disableWorkspacePools.Store(false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (karp2Alg{}).Solve(g, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKarp2Fresh / BenchmarkKarp2Reuse mirror the Howard pair for the
// space-efficient Karp variant.
func BenchmarkKarp2Fresh(b *testing.B) { benchKarp(b, false) }
func BenchmarkKarp2Reuse(b *testing.B) { benchKarp(b, true) }

// BenchmarkKernelizedDriverCircuit is the circuit-kernel workload's
// operation: the certified, kernelized maximum cycle mean of a 30 976-node
// circuit of 16 chain-heavy blocks, on two workers.
func BenchmarkKernelizedDriverCircuit(b *testing.B) {
	g, err := gen.MultiChain(16, gen.ChainConfig{
		CoreN: 16, Chains: 32, ChainLen: 60, MinWeight: 1, MaxWeight: 1000, SelfLoops: 4, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	opt := Options{Kernelize: true, Parallelism: 2, Certify: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MaximumCycleMean(g, howardAlg{}, opt); err != nil {
			b.Fatal(err)
		}
	}
}
