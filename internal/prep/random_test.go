package prep

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
)

// randomChains builds a graph of a few blocks, each of up to seven core
// nodes joined by chains of up to three nodes, many of them looping back to
// their start, with random self-loops and a few random arcs between blocks.
// Node and arc order are shuffled, so chain nodes fall anywhere in Tarjan's
// root order and chain arcs anywhere in arc order.
func randomChains(r *rand.Rand) *graph.Graph {
	var arcs []graph.Arc
	n := 0
	add := func(u, v int) {
		arcs = append(arcs, graph.Arc{From: graph.NodeID(u), To: graph.NodeID(v),
			Weight: int64(r.Intn(11) - 5), Transit: int64(r.Intn(3))})
	}
	for b := 0; b < 1+r.Intn(3); b++ {
		core := n
		k := 1 + r.Intn(7)
		n += k
		for c := 0; c < 1+r.Intn(12); c++ {
			u, v := core+r.Intn(k), core+r.Intn(k)
			prev := u
			for i := r.Intn(4); i > 0; i-- {
				add(prev, n)
				prev = n
				n++
			}
			add(prev, v)
		}
	}
	for i := r.Intn(3); i > 0; i-- {
		v := r.Intn(n)
		add(v, v)
	}
	for i := r.Intn(4); i > 0; i-- {
		add(r.Intn(n), r.Intn(n))
	}
	perm := r.Perm(n)
	for i := range arcs {
		arcs[i].From, arcs[i].To = graph.NodeID(perm[arcs[i].From]), graph.NodeID(perm[arcs[i].To])
	}
	r.Shuffle(len(arcs), func(i, j int) { arcs[i], arcs[j] = arcs[j], arcs[i] })
	return graph.FromArcs(n, arcs)
}

// TestRandomKernelEquivalence compares both contractions with the reference
// on random chain-and-loop graphs, where nodes become chain nodes as cycles
// through them close, in both modes: Kernelize on each component, and the
// whole-graph contraction's components, their order, sizes and kernels.
func TestRandomKernelEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var s Scratch
	for it := 0; it < 5000; it++ {
		g := randomChains(r)
		comps := graph.CyclicComponents(g)
		for _, mode := range []Mode{Mean, Ratio} {
			for i, comp := range comps {
				want := referenceKernelize(comp.Graph, mode)
				if d := kernelDiff(s.Kernelize(comp.Graph, mode), want, nil, nil, mode); d != "" {
					t.Fatalf("graph %d mode %d component %d: %s\n%v", it, mode, i, d, g.Arcs())
				}
			}
			c := Contract(g, mode)
			if c == nil {
				continue
			}
			if c.Len() != len(comps) {
				t.Fatalf("graph %d mode %d: %d components, want %d\n%v", it, mode, c.Len(), len(comps), g.Arcs())
			}
			for i, comp := range comps {
				if raw := c.Component(i); !reflect.DeepEqual(raw, comp) {
					t.Fatalf("graph %d mode %d component %d: rebuilt component differs\n%v", it, mode, i, g.Arcs())
				}
				want := referenceKernelize(comp.Graph, mode)
				if d := kernelDiff(c.Kernelize(&s, i), want, comp.Nodes, comp.ArcMap, mode); d != "" {
					t.Fatalf("graph %d mode %d component %d: %s\n%v", it, mode, i, d, g.Arcs())
				}
			}
		}
	}
}
