package prep_test

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/prep"
	"repro/internal/testutil"
)

// arcs builds a graph from (from, to, weight) rows, every transit 1.
func arcs(n int, rows ...[3]int64) *graph.Graph {
	out := make([]graph.Arc, len(rows))
	for i, r := range rows {
		out[i] = graph.Arc{From: graph.NodeID(r[0]), To: graph.NodeID(r[1]), Weight: r[2], Transit: 1}
	}
	return graph.FromArcs(n, out)
}

// shapes are the hand-built edge cases of chain contraction.
var shapes = map[string]*graph.Graph{
	// Every node is a chain node: the graph is one cycle.
	"pure-cycle": arcs(4, [3]int64{0, 1, 3}, [3]int64{1, 2, -1}, [3]int64{2, 3, 4}, [3]int64{3, 0, 2}),
	// Chain node 2 runs from component {0, 1} into component {3, 4}, so
	// its arcs lie on no cycle.
	"chain-between-components": arcs(5, [3]int64{0, 1, 1}, [3]int64{1, 0, 2}, [3]int64{1, 2, 3},
		[3]int64{2, 3, 4}, [3]int64{3, 4, 5}, [3]int64{4, 3, 6}),
	// Node 0 is a chain node and Tarjan's first root; both components have
	// λ* = 2, so their order decides the witness.
	"chain-root": arcs(5, [3]int64{1, 2, 1}, [3]int64{1, 2, 2}, [3]int64{2, 1, 3}, [3]int64{3, 0, 1},
		[3]int64{0, 4, 2}, [3]int64{4, 3, 3}, [3]int64{4, 3, 7}),
	// Node 1's second arc out leaves its component: it is a chain node only
	// inside the component.
	"chain-inside-component": arcs(5, [3]int64{0, 1, 1}, [3]int64{1, 2, 1}, [3]int64{2, 0, 1},
		[3]int64{1, 3, 2}, [3]int64{3, 4, 3}, [3]int64{4, 3, 3}),
	// Node 1 has one arc in and one out besides its self-loop.
	"self-loop-chain": arcs(4, [3]int64{0, 1, 2}, [3]int64{1, 2, 2}, [3]int64{2, 0, 2}, [3]int64{1, 1, -1},
		[3]int64{0, 3, 5}, [3]int64{3, 0, 5}),
	// Both chains out of node 0 come back to it; once the first closes,
	// node 0 is a chain node on the second.
	"loops-back": arcs(4, [3]int64{0, 1, 1}, [3]int64{1, 2, 1}, [3]int64{2, 0, 1}, [3]int64{0, 3, 5}, [3]int64{3, 0, 5}),
	// Node 1's loop closes first and splices it; the path through it closes
	// a loop at node 5 before 5's own loop through 3 and 0 does, so that
	// last cycle runs from node 0.
	"loops-interleave": arcs(9, [3]int64{0, 5, 3}, [3]int64{1, 2, 2}, [3]int64{1, 7, 0}, [3]int64{2, 5, 5},
		[3]int64{3, 0, -1}, [3]int64{4, 5, 4}, [3]int64{5, 6, 4}, [3]int64{5, 8, -2}, [3]int64{5, 3, -5},
		[3]int64{6, 6, 1}, [3]int64{6, 1, 5}, [3]int64{7, 1, -2}, [3]int64{8, 4, 5}),
}

// kernelCorpus is every graph the kernel checks run on: both shared corpora,
// both near-limit sets, chain-heavy circuits and the hand-built shapes.
func kernelCorpus(t *testing.T) (names []string, graphs map[string]*graph.Graph) {
	t.Helper()
	graphs = testutil.MeanCorpus(t)
	for name, g := range testutil.RatioCorpus(t) {
		graphs["ratio/"+name] = g
	}
	nm, _ := testutil.NearLimitMeanGraphs()
	for name, g := range nm {
		graphs["nearmean/"+name] = g
	}
	nr, _ := testutil.NearLimitRatioGraphs()
	for name, g := range nr {
		graphs["nearratio/"+name] = g
	}
	for name, g := range shapes {
		graphs["shape/"+name] = g
	}
	for seed := uint64(1); seed <= 4; seed++ {
		g, err := gen.MultiChain(int(seed)+1, gen.ChainConfig{CoreN: 6, Chains: 8, ChainLen: 5, MinWeight: -20, MaxWeight: 20, SelfLoops: 2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		graphs[fmt.Sprintf("multichain/%d", seed)] = g
	}
	// The circuit-kernel workload's shape: 16 blocks of 16 core nodes and
	// 32 chains of 60 nodes.
	g, err := gen.MultiChain(16, gen.ChainConfig{CoreN: 16, Chains: 32, ChainLen: 60, MinWeight: 1, MaxWeight: 1000, SelfLoops: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	graphs["circuit"] = g
	for name := range graphs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, graphs
}

// TestWalkKernelEquivalence: on every component of every corpus graph, in
// both modes, Kernelize by the walk gives exactly the reference kernel.
func TestWalkKernelEquivalence(t *testing.T) {
	names, graphs := kernelCorpus(t)
	var s prep.Scratch
	for _, name := range names {
		for ci, comp := range graph.CyclicComponents(graphs[name]) {
			for _, mode := range []prep.Mode{prep.Mean, prep.Ratio} {
				got, want := s.Kernelize(comp.Graph, mode), prep.ReferenceKernelize(comp.Graph, mode)
				if d := prep.KernelDiff(got, want, nil, nil, mode); d != "" {
					t.Errorf("%s component %d mode %d: %s", name, ci, mode, d)
				}
			}
		}
	}
}

// TestContractKernelEquivalence: the whole-graph contraction finds the
// components graph.CyclicComponents finds, in the same order and with the
// same sizes, rebuilds each raw component exactly, and reduces each to the
// reference kernel of that component, mapped into the graph's IDs.
func TestContractKernelEquivalence(t *testing.T) {
	names, graphs := kernelCorpus(t)
	var s prep.Scratch
	for _, name := range names {
		g := graphs[name]
		comps := graph.CyclicComponents(g)
		for _, mode := range []prep.Mode{prep.Mean, prep.Ratio} {
			c := prep.Contract(g, mode)
			if c == nil {
				continue
			}
			if c.Len() != len(comps) {
				t.Errorf("%s mode %d: %d components, want %d", name, mode, c.Len(), len(comps))
				continue
			}
			for i, comp := range comps {
				if nodes, arcs := c.Size(i); nodes != comp.Graph.NumNodes() || arcs != comp.Graph.NumArcs() {
					t.Errorf("%s mode %d component %d: size %d/%d, want %d/%d", name, mode, i, nodes, arcs, comp.Graph.NumNodes(), comp.Graph.NumArcs())
				}
				if raw := c.Component(i); !reflect.DeepEqual(raw, comp) {
					t.Errorf("%s mode %d component %d: rebuilt component differs", name, mode, i)
				}
				want := prep.ReferenceKernelize(comp.Graph, mode)
				if d := prep.KernelDiff(c.Kernelize(&s, i), want, comp.Nodes, comp.ArcMap, mode); d != "" {
					t.Errorf("%s mode %d component %d: %s", name, mode, i, d)
				}
			}
		}
	}
}

// TestKernelizeSumOverflow: a cycle whose weight sum leaves int64, and a
// two-node kernel whose pair sum does, are unsupported in either mode.
func TestKernelizeSumOverflow(t *testing.T) {
	const w = int64(1) << 62
	ring := arcs(3, [3]int64{0, 1, w}, [3]int64{1, 2, w}, [3]int64{2, 0, w})
	pair := arcs(2, [3]int64{0, 1, w}, [3]int64{0, 1, 0}, [3]int64{1, 0, w})
	chained := arcs(4, [3]int64{0, 1, w}, [3]int64{1, 2, w}, [3]int64{2, 0, 1}, [3]int64{0, 3, 1}, [3]int64{3, 0, 1})
	for _, mode := range []prep.Mode{prep.Mean, prep.Ratio} {
		for name, g := range map[string]*graph.Graph{"ring": ring, "pair": pair, "chained": chained} {
			if k := prep.Kernelize(g, mode); !errors.Is(k.Err, prep.ErrUnsupported) {
				t.Errorf("%s mode %d: Kernelize err %v, want ErrUnsupported", name, mode, k.Err)
			}
			if c := prep.Contract(g, mode); c != nil {
				var s prep.Scratch
				if k := c.Kernelize(&s, 0); !errors.Is(k.Err, prep.ErrUnsupported) {
					t.Errorf("%s mode %d: contracted kernel err %v, want ErrUnsupported", name, mode, k.Err)
				}
			}
		}
	}
}
