package core

import (
	"testing"

	"repro/internal/graph"
)

// decodeFuzzGraph derives a small graph from fuzz bytes: byte 0 picks the
// node count in [2, maxN], then each 3-byte chunk becomes an arc
// (from, to, int8 weight). Self-loops and parallel arcs are deliberately
// reachable; the graph need not be strongly connected or even cyclic.
func decodeFuzzGraph(data []byte, maxN, maxArcs int) *graph.Graph {
	if len(data) < 4 {
		return nil
	}
	n := 2 + int(data[0])%(maxN-1)
	data = data[1:]
	var arcs []graph.Arc
	for len(data) >= 3 && len(arcs) < maxArcs {
		arcs = append(arcs, graph.Arc{
			From:    graph.NodeID(int(data[0]) % n),
			To:      graph.NodeID(int(data[1]) % n),
			Weight:  int64(int8(data[2])),
			Transit: 1,
		})
		data = data[3:]
	}
	if len(arcs) == 0 {
		return nil
	}
	return graph.FromArcs(n, arcs)
}

// FuzzSolveDifferential lives in fuzz_differential_test.go (package
// core_test) so it can report failures through the shared shrinking
// reporter in internal/testutil.

// FuzzApproxDifferential cross-checks the approximation tier against the
// exact Howard solve: the sharpened path must be bit-identical, and every
// unsharpened ε run's certified interval [Mean−ErrorBound, Mean] must
// contain the true λ*. The trailing fuzz bytes steer ε and the scheme so
// both modes and a spread of tolerances get explored.
func FuzzApproxDifferential(f *testing.F) {
	f.Add([]byte{3, 0, 1, 5, 1, 2, 250, 2, 0, 3}, byte(0), byte(0))
	f.Add([]byte{0, 0, 0, 200, 1, 1, 10}, byte(3), byte(1))
	f.Add([]byte{5, 0, 1, 1, 1, 0, 255}, byte(9), byte(0))
	f.Add([]byte{2, 0, 1, 7, 1, 2, 7, 2, 3, 7, 3, 0, 7}, byte(1), byte(1))
	f.Add([]byte{4, 1, 1, 128, 2, 2, 127, 1, 2, 0, 2, 1, 0}, byte(7), byte(0))
	f.Fuzz(func(t *testing.T, data []byte, epsSel, modeSel byte) {
		g := decodeFuzzGraph(data, 6, 14)
		if g == nil {
			return
		}
		approx, err := ByName("approx")
		if err != nil {
			t.Fatal(err)
		}
		howard, err := ByName("howard")
		if err != nil {
			t.Fatal(err)
		}
		exact, exactErr := MinimumCycleMean(g, howard, Options{})

		mode := "chkl"
		if modeSel%2 == 1 {
			mode = "ap"
		}
		// ε in {0.001, 0.01, ..., 0.5}: coarse enough to exercise the
		// interval logic, fine enough to hit exact convergence sometimes.
		epsTable := []float64{0.001, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5}
		eps := epsTable[int(epsSel)%len(epsTable)]

		res, err := MinimumCycleMean(g, approx, Options{Approx: ApproxOptions{Epsilon: eps, Mode: mode}})
		if (exactErr == nil) != (err == nil) {
			t.Fatalf("eps=%g mode=%s: error disagreement: exact=%v approx=%v", eps, mode, exactErr, err)
		}
		if exactErr == nil {
			lam := exact.Mean.Float64()
			if res.Mean.Float64() < lam-1e-9 {
				t.Fatalf("eps=%g mode=%s: mean %v below λ* %v", eps, mode, res.Mean, exact.Mean)
			}
			if res.Mean.Float64()-res.ErrorBound > lam+1e-9 {
				t.Fatalf("eps=%g mode=%s: interval [%v, %v] misses λ* %v",
					eps, mode, res.Mean.Float64()-res.ErrorBound, res.Mean.Float64(), exact.Mean)
			}
			if err := g.ValidateCycle(res.Cycle); err != nil {
				t.Fatalf("eps=%g mode=%s: witness invalid: %v", eps, mode, err)
			}
		}

		sharp, err := MinimumCycleMean(g, approx, Options{Approx: ApproxOptions{Mode: mode}, ApproxSharpen: true})
		if (exactErr == nil) != (err == nil) {
			t.Fatalf("sharpened mode=%s: error disagreement: exact=%v approx=%v", mode, exactErr, err)
		}
		if exactErr == nil {
			if !sharp.Mean.Equal(exact.Mean) {
				t.Fatalf("sharpened mode=%s: λ* = %v, exact %v", mode, sharp.Mean, exact.Mean)
			}
			if !sharp.Exact || sharp.ErrorBound != 0 {
				t.Fatalf("sharpened mode=%s: exact=%v bound=%v", mode, sharp.Exact, sharp.ErrorBound)
			}
		}
	})
}

// FuzzKernelEquivalence pins the kernelization pipeline against raw solves
// on slightly larger graphs than the differential target (kernels only get
// interesting with chains and self-loops to contract).
func FuzzKernelEquivalence(f *testing.F) {
	f.Add([]byte{8, 0, 1, 5, 1, 2, 250, 2, 3, 3, 3, 4, 9, 4, 0, 1})
	f.Add([]byte{9, 0, 0, 1, 1, 1, 255, 0, 1, 3, 1, 0, 4})
	f.Add([]byte{1, 0, 1, 100, 1, 0, 156})
	// Chain contraction's edge cases: a pure chain cycle; a chain between
	// two components; a chain node as Tarjan's first root, with a tie
	// between the components; a node that is a chain node only inside its
	// component; a self-loop on a node with one other arc in and out; a
	// chain that loops back to its start; loops that splice nodes in turn.
	f.Add([]byte{2, 0, 1, 3, 1, 2, 255, 2, 3, 4, 3, 0, 2})
	f.Add([]byte{3, 0, 1, 1, 1, 0, 2, 1, 2, 3, 2, 3, 4, 3, 4, 5, 4, 3, 6})
	f.Add([]byte{3, 1, 2, 1, 1, 2, 2, 2, 1, 3, 3, 0, 1, 0, 4, 2, 4, 3, 3, 4, 3, 7})
	f.Add([]byte{3, 0, 1, 1, 1, 2, 1, 2, 0, 1, 1, 3, 2, 3, 4, 3, 4, 3, 3})
	f.Add([]byte{2, 0, 1, 2, 1, 2, 2, 2, 0, 2, 1, 1, 255, 0, 3, 5, 3, 0, 5})
	f.Add([]byte{2, 0, 1, 1, 1, 2, 1, 2, 0, 1, 0, 3, 5, 3, 0, 5})
	f.Add([]byte{7, 0, 5, 3, 1, 2, 2, 1, 7, 0, 2, 5, 5, 3, 0, 255, 4, 5, 4, 5, 6, 4, 5, 8, 254,
		5, 3, 251, 6, 6, 1, 6, 1, 5, 7, 1, 254, 8, 4, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := decodeFuzzGraph(data, 10, 24)
		if g == nil {
			return
		}
		howard, err := ByName("howard")
		if err != nil {
			t.Fatal(err)
		}
		for _, solve := range []struct {
			name string
			run  func(*graph.Graph, Algorithm, Options) (Result, error)
			opt  Options
		}{
			{"min", MinimumCycleMean, Options{Kernelize: true}},
			{"max/2 workers", MaximumCycleMean, Options{Kernelize: true, Parallelism: 2}},
		} {
			raw, rawErr := solve.run(g, howard, Options{})
			kr, krErr := solve.run(g, howard, solve.opt)
			if (rawErr == nil) != (krErr == nil) {
				t.Fatalf("%s: error disagreement: raw=%v kernelized=%v", solve.name, rawErr, krErr)
			}
			if rawErr != nil {
				continue
			}
			if !kr.Mean.Equal(raw.Mean) {
				t.Fatalf("%s: kernelized λ* = %v, raw = %v", solve.name, kr.Mean, raw.Mean)
			}
			if err := g.ValidateCycle(kr.Cycle); err != nil {
				t.Fatalf("%s: kernelized cycle invalid on original graph: %v", solve.name, err)
			}
		}
	})
}
