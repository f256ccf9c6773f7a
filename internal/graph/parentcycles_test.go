package graph

import (
	"reflect"
	"testing"
)

// parentGraph has two parent-graph cycles, 0→1→2→0 (arcs 0, 1, 2) and
// 3→4→3 (arcs 3, 4), plus the tail 2→5→6 hanging off the first.
func parentGraph() (*Graph, []ArcID) {
	b := NewBuilder(7, 7)
	b.AddNodes(7)
	b.AddArc(0, 1, 1) // 0
	b.AddArc(1, 2, 1) // 1
	b.AddArc(2, 0, 1) // 2
	b.AddArc(3, 4, 1) // 3
	b.AddArc(4, 3, 1) // 4
	b.AddArc(2, 5, 1) // 5
	b.AddArc(5, 6, 1) // 6
	return b.Build(), []ArcID{2, 0, 1, 4, 3, 5, 6}
}

// first returns the first cycle Scan reports, or nil on an acyclic parent
// graph.
func first(s *ParentCycles, g *Graph, parent []ArcID) []ArcID {
	var c []ArcID
	s.Scan(g, parent, func(cycle []ArcID) bool {
		c = cycle
		return false
	})
	return c
}

func TestParentCyclesScan(t *testing.T) {
	g, parent := parentGraph()
	var s ParentCycles
	var got [][]ArcID
	s.Scan(g, parent, func(cycle []ArcID) bool {
		if err := g.ValidateCycle(cycle); err != nil {
			t.Errorf("cycle %v: %v", cycle, err)
		}
		got = append(got, append([]ArcID(nil), cycle...))
		return true
	})
	if want := [][]ArcID{{0, 1, 2}, {3, 4}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Scan found %v, want %v (forward order, roots ascending)", got, want)
	}
}

func TestParentCyclesStopsEarly(t *testing.T) {
	g, parent := parentGraph()
	var s ParentCycles
	if got := first(&s, g, parent); !reflect.DeepEqual(got, []ArcID{0, 1, 2}) {
		t.Fatalf("first cycle = %v, want [0 1 2]", got)
	}
	parent[0] = -1 // breaks 0→1→2→0; the 3↔4 cycle remains
	if got := first(&s, g, parent); !reflect.DeepEqual(got, []ArcID{3, 4}) {
		t.Fatalf("first cycle after breaking 0→1→2→0 = %v, want [3 4]", got)
	}
	parent[3] = -1
	if got := first(&s, g, parent); got != nil {
		t.Fatalf("first cycle of an acyclic parent graph = %v, want nil", got)
	}
}

// TestParentCyclesAllocs pins the reuse contract: once its buffers have
// grown, a scanner allocates nothing.
func TestParentCyclesAllocs(t *testing.T) {
	g, parent := parentGraph()
	var s ParentCycles
	s.Scan(g, parent, func([]ArcID) bool { return true })
	allocs := testing.AllocsPerRun(100, func() {
		n := 0
		s.Scan(g, parent, func([]ArcID) bool { n++; return true })
		if first(&s, g, parent) == nil || n != 2 {
			t.Fatal("scan lost a cycle")
		}
	})
	if allocs != 0 {
		t.Errorf("warm scan allocates %.1f objects per run, want 0", allocs)
	}
}

// TestPolicyCyclesWalk pins the walk order the policy solvers rely on:
// roots ascending, each new cycle reported from the node where its walk
// entered it, then that walk's tail; a walk that runs into an earlier one
// reports only its tail. Once its buffers have grown, a walker allocates
// nothing.
func TestPolicyCyclesWalk(t *testing.T) {
	b := NewBuilder(7, 7)
	b.AddNodes(7)
	b.AddArc(0, 1, 1) // 0
	b.AddArc(1, 2, 1) // 1
	b.AddArc(2, 1, 1) // 2
	b.AddArc(3, 4, 1) // 3
	b.AddArc(4, 3, 1) // 4
	b.AddArc(5, 0, 1) // 5
	b.AddArc(6, 6, 1) // 6
	g := b.Build()
	policy := []ArcID{0, 1, 2, 3, 4, 5, 6}
	var s PolicyCycles
	var cycles [][]ArcID
	var tails [][]NodeID
	s.Walk(g, policy, func(cycle []ArcID) {
		cycles = append(cycles, append([]ArcID(nil), cycle...))
	}, func(walk []NodeID) {
		tails = append(tails, append([]NodeID(nil), walk...))
	})
	if want := [][]ArcID{{1, 2}, {3, 4}, {6}}; !reflect.DeepEqual(cycles, want) {
		t.Errorf("Walk found cycles %v, want %v", cycles, want)
	}
	if want := [][]NodeID{{0}, {5}}; !reflect.DeepEqual(tails, want) {
		t.Errorf("Walk reported tails %v, want %v", tails, want)
	}
	allocs := testing.AllocsPerRun(100, func() {
		n := 0
		s.Walk(g, policy, func([]ArcID) { n++ }, nil)
		if n != 3 {
			t.Fatal("walk lost a cycle")
		}
	})
	if allocs != 0 {
		t.Errorf("warm walk allocates %.1f objects per run, want 0", allocs)
	}
}
