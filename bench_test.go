// Package repro's root benchmark suite regenerates every experiment of the
// DAC'99 study as a testing.B family (see DESIGN.md §4 for the experiment
// index). Benchmarks attach the paper's representative operation counts as
// custom metrics (iterations/op, heap-ops/op, arcs/op, λ*), so a single
//
//	go test -bench=. -benchmem
//
// produces both the timing shape of Table 2 and the §4.1–§4.5 observation
// data at laptop scale. cmd/mcmbench runs the full-size grid.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/maxplus"
	"repro/internal/ncd"
	"repro/internal/perf"
	"repro/internal/pq"
	"repro/internal/ratio"
	"repro/internal/retime"
)

// benchSizes is the laptop-scale cut of the Table 2 grid: the full five
// density columns at n = 512, plus the sparse/dense extremes at n = 2048.
var benchSizes = [][2]int{
	{512, 512}, {512, 768}, {512, 1024}, {512, 1280}, {512, 1536},
	{2048, 2048}, {2048, 6144},
}

func sprandGraph(b *testing.B, n, m int, seed uint64) *graph.Graph {
	b.Helper()
	g, err := gen.Sprand(gen.SprandConfig{N: n, M: m, MinWeight: 1, MaxWeight: 10000, Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func solveLoop(b *testing.B, g *graph.Graph, name string, opt core.Options) core.Result {
	b.Helper()
	algo, err := core.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	var res core.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = algo.Solve(g, opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(res.Counts.Iterations), "iters/op")
	b.ReportMetric(res.Mean.Float64(), "λ*")
	return res
}

// BenchmarkTable2 regenerates experiment E-T2: the running-time comparison
// of the paper's ten algorithms on the SPRAND grid.
func BenchmarkTable2(b *testing.B) {
	for _, name := range bench.Table2Algorithms {
		for _, size := range benchSizes {
			n, m := size[0], size[1]
			if name == "oa1" && n > 512 {
				continue // the paper's N/A region; see cmd/mcmbench -table table2
			}
			g := sprandGraph(b, n, m, 1)
			b.Run(fmt.Sprintf("%s/n=%d,m=%d", name, n, m), func(b *testing.B) {
				solveLoop(b, g, name, core.Options{})
			})
		}
	}
}

// BenchmarkMCMValue regenerates experiment E-41: the λ* value itself as a
// reported metric across the density sweep (§4.1: near-constant in n,
// inversely related to m/n).
func BenchmarkMCMValue(b *testing.B) {
	for _, size := range [][2]int{
		{512, 512}, {512, 1536}, {1024, 1024}, {1024, 3072}, {2048, 2048}, {2048, 6144},
	} {
		g := sprandGraph(b, size[0], size[1], 1)
		b.Run(fmt.Sprintf("n=%d,m=%d", size[0], size[1]), func(b *testing.B) {
			solveLoop(b, g, "howard", core.Options{})
		})
	}
}

// BenchmarkKOvsYTO regenerates experiment E-42: the heap-operation counts
// of the two parametric shortest path algorithms (§4.2: YTO saves inserts,
// more so as density grows). Counts appear as ins/op, dec/op, min/op.
func BenchmarkKOvsYTO(b *testing.B) {
	for _, name := range []string{"ko", "yto"} {
		for _, size := range benchSizes {
			g := sprandGraph(b, size[0], size[1], 1)
			b.Run(fmt.Sprintf("%s/n=%d,m=%d", name, size[0], size[1]), func(b *testing.B) {
				res := solveLoop(b, g, name, core.Options{})
				b.ReportMetric(float64(res.Counts.HeapInserts), "ins/op")
				b.ReportMetric(float64(res.Counts.HeapExtractMins), "min/op")
				b.ReportMetric(float64(res.Counts.HeapDecreaseKeys), "dec/op")
			})
		}
	}
}

// BenchmarkIterations regenerates experiment E-43: iteration counts of the
// iterative algorithms (§4.3), reported as iters/op.
func BenchmarkIterations(b *testing.B) {
	for _, name := range []string{"burns", "ko", "yto", "howard", "ho"} {
		for _, size := range benchSizes {
			g := sprandGraph(b, size[0], size[1], 1)
			b.Run(fmt.Sprintf("%s/n=%d,m=%d", name, size[0], size[1]), func(b *testing.B) {
				solveLoop(b, g, name, core.Options{})
			})
		}
	}
}

// BenchmarkKarpVariants regenerates experiment E-44: Karp versus its DG,
// HO and Karp2 variants (§4.4), with arcs visited as arcs/op.
func BenchmarkKarpVariants(b *testing.B) {
	for _, name := range []string{"karp", "karp2", "dg", "ho"} {
		for _, size := range benchSizes {
			g := sprandGraph(b, size[0], size[1], 1)
			b.Run(fmt.Sprintf("%s/n=%d,m=%d", name, size[0], size[1]), func(b *testing.B) {
				res := solveLoop(b, g, name, core.Options{})
				b.ReportMetric(float64(res.Counts.ArcsVisited), "arcs/op")
			})
		}
	}
}

// BenchmarkCircuits regenerates experiment E-C: the benchmark-circuit
// family (clock-period bound on latch graphs of synthetic sequential
// circuits — the substitution for the paper's MCNC benchmarks).
func BenchmarkCircuits(b *testing.B) {
	for _, ffs := range []int{32, 128, 512} {
		nl, err := circuit.Generate(circuit.GenConfig{
			FFs: ffs, CloudGates: 24, MaxFanin: 3, Feedback: ffs / 4, PIs: 6, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		lg, err := circuit.LatchGraph(nl)
		if err != nil {
			b.Fatal(err)
		}
		neg := lg.NegateWeights()
		for _, name := range []string{"howard", "karp", "dg", "yto", "burns"} {
			b.Run(fmt.Sprintf("%s/ffs=%d", name, ffs), func(b *testing.B) {
				algo, err := core.ByName(name)
				if err != nil {
					b.Fatal(err)
				}
				for i := 0; i < b.N; i++ {
					if _, err := core.MinimumCycleMean(neg, algo, core.Options{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkHeapKinds is the ablation for the paper's Fibonacci-heap choice
// (LEDA's default): the same YTO run with Fibonacci, binary, and pairing
// heaps.
func BenchmarkHeapKinds(b *testing.B) {
	g := sprandGraph(b, 2048, 6144, 1)
	for _, kind := range []pq.Kind{pq.Fibonacci, pq.Binary, pq.Pairing} {
		b.Run("yto/"+kind.String(), func(b *testing.B) {
			solveLoop(b, g, "yto", core.Options{HeapKind: kind})
		})
	}
}

// BenchmarkLawlerExactVsApprox ablates the exact-snap improvement of
// Lawler's algorithm (the paper's "improved Lawler" future work) against
// the paper's ε-approximate original.
func BenchmarkLawlerExactVsApprox(b *testing.B) {
	g := sprandGraph(b, 1024, 3072, 1)
	b.Run("exact", func(b *testing.B) {
		solveLoop(b, g, "lawler", core.Options{})
	})
	b.Run("eps=1e-3", func(b *testing.B) {
		solveLoop(b, g, "lawler", core.Options{Epsilon: 1e-3})
	})
}

// BenchmarkRatioAlgorithms times the cost-to-time-ratio solvers (the MCRP
// side of the paper) on transit-weighted SPRAND graphs.
func BenchmarkRatioAlgorithms(b *testing.B) {
	base := sprandGraph(b, 512, 1536, 1)
	arcs := make([]graph.Arc, base.NumArcs())
	state := uint64(12345)
	for i, a := range base.Arcs() {
		state = state*6364136223846793005 + 1442695040888963407
		a.Transit = 1 + int64((state>>33)%4)
		arcs[i] = a
	}
	g := graph.FromArcs(base.NumNodes(), arcs)
	for _, name := range []string{"howard", "burns", "lawler", "ko", "yto"} {
		b.Run(name, func(b *testing.B) {
			algo, err := ratio.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := algo.Solve(g, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLawlerNCD ablates the negative-cycle detector inside Lawler's
// binary search: textbook Bellman–Ford (the paper's cost model),
// early-exit Bellman–Ford, and Tarjan's subtree-disassembly detector.
func BenchmarkLawlerNCD(b *testing.B) {
	g := sprandGraph(b, 1024, 3072, 1)
	for _, method := range []ncd.Method{ncd.Basic, ncd.EarlyExit, ncd.Tarjan} {
		b.Run(method.String(), func(b *testing.B) {
			solveLoop(b, g, "lawler", core.Options{NCD: method})
		})
	}
}

// BenchmarkClockSchedule times optimal clock-skew scheduling (setup-only
// and setup+hold) on generated circuits — the Szymanski application.
func BenchmarkClockSchedule(b *testing.B) {
	nl, err := circuit.Generate(circuit.GenConfig{
		FFs: 256, CloudGates: 20, MaxFanin: 3, Feedback: 64, PIs: 8, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	lg, minDelay, err := circuit.LatchGraphMinMax(nl)
	if err != nil {
		b.Fatal(err)
	}
	howard, _ := core.ByName("howard")
	b.Run("setup-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := perf.ScheduleLatchGraph(lg, howard); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("setup+hold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := perf.ScheduleSetupHold(lg, minDelay, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRetiming times minimum-period retiming on generated circuits.
func BenchmarkRetiming(b *testing.B) {
	for _, ffs := range []int{16, 48} {
		nl, err := circuit.Generate(circuit.GenConfig{
			FFs: ffs, CloudGates: 12, MaxFanin: 3, Feedback: ffs / 4, PIs: 4, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		rg, err := retime.FromNetlist(nl)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("ffs=%d", ffs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := retime.Minimize(rg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMaxplusEigen times the max-plus spectral computation (the [6]
// setting Howard's algorithm came from).
func BenchmarkMaxplusEigen(b *testing.B) {
	g := sprandGraph(b, 512, 1536, 1)
	m := maxplus.FromGraph(g)
	howard, _ := core.ByName("howard")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.Eigenvector(howard); err != nil {
			b.Fatal(err)
		}
	}
}
