package graph_test

// External test package: the extraction tests run over the shared corpora of
// internal/testutil and the multi-SCC circuits of internal/gen, both of
// which import graph.

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/testutil"
)

// mapInducedSubgraph is the map-based construction CyclicComponents and
// InducedSubgraph used before the dense extraction: a map from node to
// subgraph ID and append-grown arc slices. It is the reference the dense
// extraction must reproduce exactly.
func mapInducedSubgraph(g *graph.Graph, nodes []graph.NodeID) (*graph.Graph, []graph.ArcID) {
	remap := make(map[graph.NodeID]graph.NodeID, len(nodes))
	for i, v := range nodes {
		remap[v] = graph.NodeID(i)
	}
	var (
		arcs   []graph.Arc
		arcMap []graph.ArcID
	)
	for _, v := range nodes {
		for _, id := range g.OutArcs(v) {
			a := g.Arc(id)
			if w, ok := remap[a.To]; ok {
				arcs = append(arcs, graph.Arc{From: remap[v], To: w, Weight: a.Weight, Transit: a.Transit})
				arcMap = append(arcMap, id)
			}
		}
	}
	return graph.FromArcs(len(nodes), arcs), arcMap
}

// referenceComponents builds CyclicComponents' answer the old way: one
// map-based induced subgraph per cyclic Tarjan component.
func referenceComponents(g *graph.Graph) []graph.Component {
	var out []graph.Component
	for _, members := range graph.StronglyConnectedComponents(g).Members {
		if len(members) == 1 && !hasSelfLoop(g, members[0]) {
			continue
		}
		sub, arcMap := mapInducedSubgraph(g, members)
		out = append(out, graph.Component{Graph: sub, Nodes: members, ArcMap: arcMap})
	}
	return out
}

func hasSelfLoop(g *graph.Graph, v graph.NodeID) bool {
	for _, id := range g.OutArcs(v) {
		if g.Arc(id).To == v {
			return true
		}
	}
	return false
}

// graphDiff describes the first difference between two graphs' arcs or
// adjacency index, or returns "" when they are identical.
func graphDiff(a, b *graph.Graph) string {
	if a.NumNodes() != b.NumNodes() {
		return fmt.Sprintf("nodes %d vs %d", a.NumNodes(), b.NumNodes())
	}
	if !slices.Equal(a.Arcs(), b.Arcs()) {
		return fmt.Sprintf("arcs %v vs %v", a.Arcs(), b.Arcs())
	}
	for v := graph.NodeID(0); int(v) < a.NumNodes(); v++ {
		if !slices.Equal(a.OutArcs(v), b.OutArcs(v)) {
			return fmt.Sprintf("node %d out-arcs %v vs %v", v, a.OutArcs(v), b.OutArcs(v))
		}
		if !slices.Equal(a.InArcs(v), b.InArcs(v)) {
			return fmt.Sprintf("node %d in-arcs %v vs %v", v, a.InArcs(v), b.InArcs(v))
		}
	}
	return ""
}

// build assembles a graph from (from, to, weight) rows.
func build(n int, rows ...[3]int64) *graph.Graph {
	arcs := make([]graph.Arc, len(rows))
	for i, r := range rows {
		arcs[i] = graph.Arc{From: graph.NodeID(r[0]), To: graph.NodeID(r[1]), Weight: r[2], Transit: 1 + int64(i)%3}
	}
	return graph.FromArcs(n, arcs)
}

// extractionGraphs is the mean and ratio corpora plus hand-built shapes that
// stress the extraction's edge cases.
func extractionGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	graphs := map[string]*graph.Graph{
		"empty":       graph.FromArcs(0, nil),
		"arcless":     graph.FromArcs(4, nil),
		"isolated":    build(6, [3]int64{1, 2, 5}, [3]int64{2, 1, -3}),
		"acyclic":     build(7, [3]int64{0, 1, 1}, [3]int64{1, 2, 1}, [3]int64{2, 3, 1}, [3]int64{3, 4, 9}, [3]int64{4, 5, 2}, [3]int64{5, 4, 2}),
		"self-loops":  build(4, [3]int64{0, 0, 3}, [3]int64{1, 1, -2}, [3]int64{1, 1, 7}, [3]int64{0, 1, 4}, [3]int64{1, 2, 1}, [3]int64{3, 3, 0}),
		"parallel":    build(5, [3]int64{0, 1, 1}, [3]int64{0, 1, 2}, [3]int64{1, 0, 3}, [3]int64{1, 0, 3}, [3]int64{1, 2, 5}, [3]int64{2, 3, 1}, [3]int64{3, 2, 2}, [3]int64{3, 2, -2}, [3]int64{4, 0, 1}),
		"interleaved": build(6, [3]int64{4, 0, 1}, [3]int64{5, 3, 2}, [3]int64{0, 2, 3}, [3]int64{3, 1, 4}, [3]int64{2, 4, 5}, [3]int64{1, 5, 6}, [3]int64{0, 1, 7}, [3]int64{2, 2, 8}),
	}
	chains, err := gen.MultiChain(4, gen.ChainConfig{CoreN: 6, Chains: 4, ChainLen: 5, MinWeight: -20, MaxWeight: 20, SelfLoops: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	graphs["multichain"] = chains
	for name, g := range testutil.MeanCorpus(t) {
		graphs["mean/"+name] = g
	}
	for name, g := range testutil.RatioCorpus(t) {
		graphs["ratio/"+name] = g
	}
	return graphs
}

func TestCyclicComponentsMatchesInducedSubgraph(t *testing.T) {
	for name, g := range extractionGraphs(t) {
		got, want := graph.CyclicComponents(g), referenceComponents(g)
		if len(got) != len(want) {
			t.Errorf("%s: %d components, want %d", name, len(got), len(want))
			continue
		}
		for i := range want {
			if !reflect.DeepEqual(got[i].Nodes, want[i].Nodes) {
				t.Errorf("%s: component %d nodes %v, want %v", name, i, got[i].Nodes, want[i].Nodes)
			}
			if !reflect.DeepEqual(got[i].ArcMap, want[i].ArcMap) {
				t.Errorf("%s: component %d arc map %v, want %v", name, i, got[i].ArcMap, want[i].ArcMap)
			}
			if d := graphDiff(got[i].Graph, want[i].Graph); d != "" {
				t.Errorf("%s: component %d subgraph differs: %s", name, i, d)
			}
		}

		// InducedSubgraph on an arbitrary, unsorted half of the nodes.
		rng := rand.New(rand.NewSource(int64(g.NumNodes())*31 + int64(g.NumArcs())))
		var nodes []graph.NodeID
		for _, v := range rng.Perm(g.NumNodes())[:g.NumNodes()/2] {
			nodes = append(nodes, graph.NodeID(v))
		}
		sub, arcMap := g.InducedSubgraph(nodes)
		refSub, refMap := mapInducedSubgraph(g, nodes)
		if !reflect.DeepEqual(arcMap, refMap) {
			t.Errorf("%s: InducedSubgraph arc map %v, want %v", name, arcMap, refMap)
		}
		if d := graphDiff(sub, refSub); d != "" {
			t.Errorf("%s: InducedSubgraph differs: %s", name, d)
		}
	}
}

func TestNegateWeightsAndReverseShareIndex(t *testing.T) {
	for name, g := range extractionGraphs(t) {
		n := g.NumNodes()
		before := slices.Clone(g.Arcs())
		negArcs, revArcs := slices.Clone(before), slices.Clone(before)
		for i := range before {
			negArcs[i].Weight = -negArcs[i].Weight
			revArcs[i].From, revArcs[i].To = revArcs[i].To, revArcs[i].From
		}
		neg, rev := g.NegateWeights(), g.Reverse()
		if d := graphDiff(neg, graph.FromArcs(n, negArcs)); d != "" {
			t.Errorf("%s: NegateWeights differs from a rebuilt graph: %s", name, d)
		}
		if d := graphDiff(rev, graph.FromArcs(n, revArcs)); d != "" {
			t.Errorf("%s: Reverse differs from a rebuilt graph: %s", name, d)
		}
		if d := graphDiff(g, graph.FromArcs(n, slices.Clone(before))); d != "" {
			t.Errorf("%s: g changed: %s", name, d)
		}
		if len(before) > 0 && (&neg.Arcs()[0] == &g.Arcs()[0] || &rev.Arcs()[0] == &g.Arcs()[0] || &neg.Arcs()[0] == &rev.Arcs()[0]) {
			t.Errorf("%s: NegateWeights or Reverse shares g's arc slice", name)
		}
	}
}

// withTail appends k nodes on an acyclic path hanging off node 0: k more
// singleton SCCs and k more arcs, and no new cyclic component.
func withTail(g *graph.Graph, k int) *graph.Graph {
	arcs := slices.Clone(g.Arcs())
	prev := graph.NodeID(0)
	for i := 0; i < k; i++ {
		v := graph.NodeID(g.NumNodes() + i)
		arcs = append(arcs, graph.Arc{From: prev, To: v, Weight: 1, Transit: 1})
		prev = v
	}
	return graph.FromArcs(g.NumNodes()+k, arcs)
}

// TestCyclicComponentsAllocsFlat pins CyclicComponents' allocation count
// to a constant plus a few allocations per cyclic component, however large
// the components or the acyclic remainder grow: no maps, no append
// regrowth, no per-node slices.
//
// The collector is off while it measures: a GC cycle that starts inside
// AllocsPerRun on the 32 832-node graph adds one runtime allocation to the
// average, which the equality check would read as growth with size.
func TestCyclicComponentsAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under -race")
	}
	const blocks = 4
	cfg := gen.ChainConfig{CoreN: 8, Chains: 4, ChainLen: 10, MinWeight: 1, MaxWeight: 100, SelfLoops: 2, Seed: 7}
	small, err := gen.MultiChain(blocks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Chains, cfg.ChainLen = 16, 200
	large, err := gen.MultiChain(blocks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tail := withTail(large, 20000)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var base float64
	for i, g := range []*graph.Graph{small, large, tail} {
		if got := len(graph.CyclicComponents(g)); got != blocks {
			t.Fatalf("graph %d: %d cyclic components, want %d", i, got, blocks)
		}
		allocs := testing.AllocsPerRun(10, func() { graph.CyclicComponents(g) })
		if limit := 10 + 8.0*blocks; allocs > limit {
			t.Errorf("graph %d (n=%d m=%d): %.0f allocs, want <= %.0f", i, g.NumNodes(), g.NumArcs(), allocs, limit)
		}
		if i == 0 {
			base = allocs
		} else if allocs != base {
			t.Errorf("graph %d (n=%d m=%d): %.0f allocs, the smallest graph takes %.0f: allocations grow with size",
				i, g.NumNodes(), g.NumArcs(), allocs, base)
		}
	}
}

// BenchmarkCyclicComponents extracts the 16 components of a 30 976-node
// multi-domain circuit: 16 chain blocks of 16 core nodes and 32 chains of 60.
func BenchmarkCyclicComponents(b *testing.B) {
	g, err := gen.MultiChain(16, gen.ChainConfig{
		CoreN: 16, Chains: 32, ChainLen: 60, MinWeight: 1, MaxWeight: 1000, SelfLoops: 4, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.CyclicComponents(g)
	}
}
