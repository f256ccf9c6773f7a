package graph

import (
	"testing"
	"testing/quick"
)

func triangle() *Graph {
	b := NewBuilder(3, 3)
	b.AddNodes(3)
	b.AddArc(0, 1, 10)
	b.AddArc(1, 2, 20)
	b.AddArc(2, 0, 30)
	return b.Build()
}

func TestBuilderAndAccessors(t *testing.T) {
	g := triangle()
	if g.NumNodes() != 3 || g.NumArcs() != 3 {
		t.Fatalf("size = %d/%d", g.NumNodes(), g.NumArcs())
	}
	if a := g.Arc(1); a.From != 1 || a.To != 2 || a.Weight != 20 || a.Transit != 1 {
		t.Fatalf("arc 1 = %+v", a)
	}
	if d := g.OutDegree(0); d != 1 {
		t.Fatalf("outdeg(0) = %d", d)
	}
	if d := g.InDegree(0); d != 1 {
		t.Fatalf("indeg(0) = %d", d)
	}
	if got := g.OutArcs(2); len(got) != 1 || g.Arc(got[0]).To != 0 {
		t.Fatalf("OutArcs(2) = %v", got)
	}
	if got := g.InArcs(2); len(got) != 1 || g.Arc(got[0]).From != 1 {
		t.Fatalf("InArcs(2) = %v", got)
	}
	min, max := g.WeightRange()
	if min != 10 || max != 30 {
		t.Fatalf("weight range = [%d,%d]", min, max)
	}
	if tt := g.TotalTransit(); tt != 3 {
		t.Fatalf("total transit = %d", tt)
	}
}

func TestBuilderPanicsOnBadArc(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b := NewBuilder(2, 1)
	b.AddNodes(2)
	b.AddArc(0, 5, 1)
}

func TestNegateAndReverse(t *testing.T) {
	g := triangle()
	neg := g.NegateWeights()
	for i := 0; i < g.NumArcs(); i++ {
		if neg.Arc(ArcID(i)).Weight != -g.Arc(ArcID(i)).Weight {
			t.Fatal("negation broken")
		}
	}
	rev := g.Reverse()
	for i := 0; i < g.NumArcs(); i++ {
		a, r := g.Arc(ArcID(i)), rev.Arc(ArcID(i))
		if a.From != r.To || a.To != r.From || a.Weight != r.Weight {
			t.Fatal("reversal broken")
		}
	}
	// Reversing twice is the identity.
	rr := rev.Reverse()
	for i := 0; i < g.NumArcs(); i++ {
		if rr.Arc(ArcID(i)) != g.Arc(ArcID(i)) {
			t.Fatal("double reversal not identity")
		}
	}
}

func TestValidateCycle(t *testing.T) {
	g := triangle()
	if err := g.ValidateCycle([]ArcID{0, 1, 2}); err != nil {
		t.Fatalf("valid cycle rejected: %v", err)
	}
	if err := g.ValidateCycle([]ArcID{0, 2}); err == nil {
		t.Fatal("broken cycle accepted")
	}
	if err := g.ValidateCycle(nil); err != nil {
		t.Fatal("empty cycle should validate")
	}
	if err := g.ValidateCycle([]ArcID{99}); err == nil {
		t.Fatal("out-of-range arc accepted")
	}
	if g.CycleWeight([]ArcID{0, 1, 2}) != 60 {
		t.Fatal("cycle weight wrong")
	}
}

func TestInducedSubgraph(t *testing.T) {
	b := NewBuilder(4, 5)
	b.AddNodes(4)
	b.AddArc(0, 1, 1)
	b.AddArc(1, 0, 2)
	b.AddArc(1, 2, 3)
	b.AddArc(2, 3, 4)
	b.AddArc(3, 1, 5)
	g := b.Build()
	sub, arcMap := g.InducedSubgraph([]NodeID{0, 1})
	if sub.NumNodes() != 2 || sub.NumArcs() != 2 {
		t.Fatalf("sub size %d/%d", sub.NumNodes(), sub.NumArcs())
	}
	for i := 0; i < sub.NumArcs(); i++ {
		orig := g.Arc(arcMap[i])
		s := sub.Arc(ArcID(i))
		if orig.Weight != s.Weight {
			t.Fatal("arc map broken")
		}
	}
}

func TestSCCBothImplementationsAgree(t *testing.T) {
	// Property: Tarjan and Kosaraju produce the same partition (same
	// equivalence relation) on random graphs.
	f := func(seed uint32, nRaw, mRaw uint8) bool {
		n := int(nRaw)%12 + 1
		m := int(mRaw) % 40
		state := uint64(seed) + 1
		next := func() uint64 {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			return state
		}
		b := NewBuilder(n, m)
		b.AddNodes(n)
		for i := 0; i < m; i++ {
			b.AddArc(NodeID(next()%uint64(n)), NodeID(next()%uint64(n)), int64(next()%100))
		}
		g := b.Build()
		t1 := StronglyConnectedComponents(g)
		t2 := KosarajuSCC(g)
		if t1.Count != t2.Count {
			return false
		}
		for u := NodeID(0); int(u) < n; u++ {
			for v := NodeID(0); int(v) < n; v++ {
				if (t1.Comp[u] == t1.Comp[v]) != (t2.Comp[u] == t2.Comp[v]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSCCKnownCases(t *testing.T) {
	// Two 2-cycles joined by a one-way arc, plus an isolated node.
	b := NewBuilder(5, 5)
	b.AddNodes(5)
	b.AddArc(0, 1, 1)
	b.AddArc(1, 0, 1)
	b.AddArc(1, 2, 1)
	b.AddArc(2, 3, 1)
	b.AddArc(3, 2, 1)
	g := b.Build()
	scc := StronglyConnectedComponents(g)
	if scc.Count != 3 {
		t.Fatalf("count = %d, want 3", scc.Count)
	}
	if scc.Comp[0] != scc.Comp[1] || scc.Comp[2] != scc.Comp[3] || scc.Comp[0] == scc.Comp[2] {
		t.Fatalf("partition wrong: %v", scc.Comp)
	}
	if IsStronglyConnected(g) {
		t.Fatal("not strongly connected")
	}
	if !IsStronglyConnected(triangle()) {
		t.Fatal("triangle is strongly connected")
	}
}

func TestHasCycle(t *testing.T) {
	if !HasCycle(triangle()) {
		t.Fatal("triangle has a cycle")
	}
	b := NewBuilder(3, 2)
	b.AddNodes(3)
	b.AddArc(0, 1, 1)
	b.AddArc(1, 2, 1)
	dag := b.Build()
	if HasCycle(dag) {
		t.Fatal("DAG has no cycle")
	}
	b2 := NewBuilder(1, 1)
	b2.AddNodes(1)
	b2.AddArc(0, 0, 1)
	if !HasCycle(b2.Build()) {
		t.Fatal("self-loop is a cycle")
	}
}

func TestCyclicComponents(t *testing.T) {
	// Cycle 0-1, bridge to node 2 with self-loop, node 3 acyclic.
	b := NewBuilder(4, 4)
	b.AddNodes(4)
	b.AddArc(0, 1, 1)
	b.AddArc(1, 0, 2)
	b.AddArc(1, 2, 3)
	b.AddArc(2, 2, 4)
	g := b.Build()
	comps := CyclicComponents(g)
	if len(comps) != 2 {
		t.Fatalf("got %d cyclic components, want 2", len(comps))
	}
	total := 0
	for _, c := range comps {
		total += len(c.Nodes)
		if !IsStronglyConnected(c.Graph) {
			t.Fatal("component subgraph not strongly connected")
		}
		for i, id := range c.ArcMap {
			if g.Arc(id).Weight != c.Graph.Arc(ArcID(i)).Weight {
				t.Fatal("arc map broken")
			}
		}
	}
	if total != 3 {
		t.Fatalf("cyclic components cover %d nodes, want 3", total)
	}
}

// TestStrongMark pins the proof CyclicComponents hands on: each component
// graph is marked strongly connected, and an unmarked copy proves the same
// by the sweep. InducedSubgraph shares induce but proves nothing, so its
// subgraph of a node set that is not strongly connected still reads false.
func TestStrongMark(t *testing.T) {
	b := NewBuilder(4, 4)
	b.AddNodes(4)
	b.AddArc(0, 1, 1)
	b.AddArc(1, 0, 2)
	b.AddArc(1, 2, 3)
	b.AddArc(2, 2, 4)
	g := b.Build()
	for _, c := range CyclicComponents(g) {
		if !c.Graph.strong {
			t.Errorf("component %v is not marked", c.Nodes)
		}
		if !IsStronglyConnected(FromArcs(c.Graph.NumNodes(), c.Graph.Arcs())) {
			t.Errorf("component %v fails the sweep", c.Nodes)
		}
	}
	sub, _ := g.InducedSubgraph([]NodeID{0, 1, 2})
	if sub.strong || IsStronglyConnected(sub) {
		t.Errorf("induced subgraph of {0,1,2}: strong = %v, IsStronglyConnected = %v, want false", sub.strong, IsStronglyConnected(sub))
	}
}

func TestTopoOrder(t *testing.T) {
	b := NewBuilder(4, 4)
	b.AddNodes(4)
	b.AddArc(0, 1, 1)
	b.AddArc(0, 2, 1)
	b.AddArc(1, 3, 1)
	b.AddArc(2, 3, 1)
	g := b.Build()
	order, ok := TopoOrder(g)
	if !ok || len(order) != 4 {
		t.Fatalf("ok=%v len=%d", ok, len(order))
	}
	pos := make(map[NodeID]int)
	for i, v := range order {
		pos[v] = i
	}
	for _, a := range g.Arcs() {
		if pos[a.From] > pos[a.To] {
			t.Fatalf("order violates arc %d->%d", a.From, a.To)
		}
	}
	if _, ok := TopoOrder(triangle()); ok {
		t.Fatal("cyclic graph topologically ordered")
	}
}

func TestAddNodeAndCycleTransit(t *testing.T) {
	b := NewBuilder(0, 2)
	v0 := b.AddNode()
	v1 := b.AddNode()
	if v0 != 0 || v1 != 1 || b.NumNodes() != 2 {
		t.Fatalf("AddNode ids %d/%d n=%d", v0, v1, b.NumNodes())
	}
	b.AddArcTransit(v0, v1, 5, 3)
	b.AddArcTransit(v1, v0, 7, 4)
	g := b.Build()
	if g.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
	if tt := g.CycleTransit([]ArcID{0, 1}); tt != 7 {
		t.Fatalf("CycleTransit = %d, want 7", tt)
	}
}
