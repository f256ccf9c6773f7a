// Package graph provides the directed-graph substrate for the cycle-mean and
// cycle-ratio algorithms: a compact immutable CSR (compressed sparse row)
// representation with int64 arc weights and transit times, a mutable Builder,
// strongly-connected-component decomposition, subgraph extraction, and text
// and DOT input/output.
//
// The representation mirrors what the DAC'99 study obtained from LEDA: a
// static digraph over which all ten algorithms iterate uniformly. Nodes are
// dense integers 0..N-1; arcs are dense integers 0..M-1 and keep their
// insertion order. Parallel arcs and self-loops are allowed (SPRAND produces
// parallel arcs, and a self-loop is a legitimate cycle of length one).
package graph

import (
	"fmt"
	"math"
)

// NodeID identifies a node; valid IDs are 0..N-1.
type NodeID = int32

// ArcID identifies an arc; valid IDs are 0..M-1 in insertion order.
type ArcID = int32

// Arc is one weighted arc. Transit is the transit time used by the
// cost-to-time ratio problem; the mean problem is the special case where
// every transit time is 1, and Builder.AddArc defaults it accordingly.
type Arc struct {
	From    NodeID
	To      NodeID
	Weight  int64
	Transit int64
}

// Graph is an immutable directed multigraph in CSR form with both out- and
// in-adjacency. Construct one with a Builder or a generator from
// internal/gen. All exported methods are safe for concurrent readers.
type Graph struct {
	arcs []Arc

	outStart []int32 // len n+1; outArcs[outStart[v]:outStart[v+1]] leave v
	outArcs  []ArcID
	inStart  []int32 // len n+1; inArcs[inStart[v]:inStart[v+1]] enter v
	inArcs   []ArcID
}

// Builder accumulates nodes and arcs and produces an immutable Graph.
// The zero value is ready to use.
type Builder struct {
	n    int
	arcs []Arc
}

// NewBuilder returns an empty Builder with capacity hints for the expected
// node and arc counts. Nodes are added with AddNode or AddNodes.
func NewBuilder(nHint, mHint int) *Builder {
	_ = nHint // nodes are a bare counter; only the arc slice needs capacity
	return &Builder{arcs: make([]Arc, 0, mHint)}
}

// AddNode appends one node and returns its ID.
func (b *Builder) AddNode() NodeID {
	id := NodeID(b.n)
	b.n++
	return id
}

// AddNodes appends k nodes and returns the ID of the first.
func (b *Builder) AddNodes(k int) NodeID {
	id := NodeID(b.n)
	b.n += k
	return id
}

// NumNodes returns the number of nodes added so far.
func (b *Builder) NumNodes() int { return b.n }

// AddArc appends an arc from u to v with the given weight and transit time 1,
// returning its ArcID. It panics if u or v is out of range.
func (b *Builder) AddArc(u, v NodeID, weight int64) ArcID {
	return b.AddArcTransit(u, v, weight, 1)
}

// AddArcTransit appends an arc with an explicit transit time.
func (b *Builder) AddArcTransit(u, v NodeID, weight, transit int64) ArcID {
	if u < 0 || int(u) >= b.n || v < 0 || int(v) >= b.n {
		panic(fmt.Sprintf("graph: arc endpoint out of range: (%d,%d) with n=%d", u, v, b.n))
	}
	id := ArcID(len(b.arcs))
	b.arcs = append(b.arcs, Arc{From: u, To: v, Weight: weight, Transit: transit})
	return id
}

// Build produces the immutable Graph. The Builder may be reused afterwards;
// the arc slice is copied.
func (b *Builder) Build() *Graph {
	arcs := make([]Arc, len(b.arcs))
	copy(arcs, b.arcs)
	return FromArcs(b.n, arcs)
}

// FromArcs builds a Graph over n nodes from an arc slice, which is retained
// (callers must not mutate it afterwards). Arc IDs equal slice indices.
func FromArcs(n int, arcs []Arc) *Graph {
	g := &Graph{arcs: arcs}
	g.outStart, g.outArcs = buildIndex(n, arcs, func(a Arc) NodeID { return a.From })
	g.inStart, g.inArcs = buildIndex(n, arcs, func(a Arc) NodeID { return a.To })
	return g
}

func buildIndex(n int, arcs []Arc, key func(Arc) NodeID) ([]int32, []ArcID) {
	start := make([]int32, n+1)
	for _, a := range arcs {
		start[key(a)+1]++
	}
	for i := 0; i < n; i++ {
		start[i+1] += start[i]
	}
	// Fill with start[k] as node k's cursor. It ends where node k+1 begins,
	// so shifting the cursors up by one slot restores the prefix sums
	// without a separate cursor array.
	idx := make([]ArcID, len(arcs))
	for i, a := range arcs {
		k := key(a)
		idx[start[k]] = ArcID(i)
		start[k]++
	}
	copy(start[1:], start[:n])
	start[0] = 0
	return start, idx
}

// NumNodes returns the number of nodes N.
func (g *Graph) NumNodes() int { return len(g.outStart) - 1 }

// NumArcs returns the number of arcs M.
func (g *Graph) NumArcs() int { return len(g.arcs) }

// Arc returns the arc with the given ID.
func (g *Graph) Arc(id ArcID) Arc { return g.arcs[id] }

// Arcs returns the underlying arc slice; callers must treat it as read-only.
func (g *Graph) Arcs() []Arc { return g.arcs }

// OutArcs returns the IDs of arcs leaving v; read-only.
func (g *Graph) OutArcs(v NodeID) []ArcID {
	return g.outArcs[g.outStart[v]:g.outStart[v+1]]
}

// InArcs returns the IDs of arcs entering v; read-only.
func (g *Graph) InArcs(v NodeID) []ArcID {
	return g.inArcs[g.inStart[v]:g.inStart[v+1]]
}

// OutDegree returns the out-degree of v.
func (g *Graph) OutDegree(v NodeID) int {
	return int(g.outStart[v+1] - g.outStart[v])
}

// InDegree returns the in-degree of v.
func (g *Graph) InDegree(v NodeID) int {
	return int(g.inStart[v+1] - g.inStart[v])
}

// WeightRange returns the minimum and maximum arc weights, or (0, 0) for an
// arcless graph.
func (g *Graph) WeightRange() (min, max int64) {
	if len(g.arcs) == 0 {
		return 0, 0
	}
	min, max = math.MaxInt64, math.MinInt64
	for _, a := range g.arcs {
		if a.Weight < min {
			min = a.Weight
		}
		if a.Weight > max {
			max = a.Weight
		}
	}
	return min, max
}

// TransitRange returns the minimum and maximum arc transit times, or (0, 0)
// for an arcless graph.
func (g *Graph) TransitRange() (min, max int64) {
	if len(g.arcs) == 0 {
		return 0, 0
	}
	min, max = math.MaxInt64, math.MinInt64
	for _, a := range g.arcs {
		if a.Transit < min {
			min = a.Transit
		}
		if a.Transit > max {
			max = a.Transit
		}
	}
	return min, max
}

// TotalTransit returns the sum of all transit times (the quantity T in the
// paper's pseudopolynomial bounds).
func (g *Graph) TotalTransit() int64 {
	var t int64
	for _, a := range g.arcs {
		t += a.Transit
	}
	return t
}

// NegateWeights returns a copy of g with every arc weight negated. The
// maximum cycle mean of g equals the negated minimum cycle mean of the copy;
// this is how the Max* drivers in internal/core are implemented. Only the
// arc slice is copied: the result shares g's immutable adjacency index,
// since no endpoint changes.
func (g *Graph) NegateWeights() *Graph {
	arcs := make([]Arc, len(g.arcs))
	for i, a := range g.arcs {
		a.Weight = -a.Weight
		arcs[i] = a
	}
	return &Graph{arcs: arcs, outStart: g.outStart, outArcs: g.outArcs, inStart: g.inStart, inArcs: g.inArcs}
}

// Reverse returns the graph with every arc reversed (weights and transit
// times preserved). Arc IDs are preserved. Only the arc slice is copied: the
// result shares g's immutable adjacency index with in and out swapped, which
// is exactly the index FromArcs would build for the reversed arcs.
func (g *Graph) Reverse() *Graph {
	arcs := make([]Arc, len(g.arcs))
	for i, a := range g.arcs {
		a.From, a.To = a.To, a.From
		arcs[i] = a
	}
	return &Graph{arcs: arcs, outStart: g.inStart, outArcs: g.inArcs, inStart: g.outStart, inArcs: g.outArcs}
}

// CycleWeight sums the weights of the given arcs (typically a cycle).
func (g *Graph) CycleWeight(cycle []ArcID) int64 {
	var w int64
	for _, id := range cycle {
		w += g.arcs[id].Weight
	}
	return w
}

// CycleTransit sums the transit times of the given arcs.
func (g *Graph) CycleTransit(cycle []ArcID) int64 {
	var t int64
	for _, id := range cycle {
		t += g.arcs[id].Transit
	}
	return t
}

// ValidateCycle checks that the arc sequence forms a closed directed walk in
// g (each arc starts where the previous one ends, and the last returns to
// the first's tail). It returns nil for the empty sequence.
func (g *Graph) ValidateCycle(cycle []ArcID) error {
	if len(cycle) == 0 {
		return nil
	}
	for i, id := range cycle {
		if id < 0 || int(id) >= len(g.arcs) {
			return fmt.Errorf("graph: cycle arc %d out of range", id)
		}
		next := g.arcs[cycle[(i+1)%len(cycle)]]
		if g.arcs[id].To != next.From {
			return fmt.Errorf("graph: cycle broken at position %d: arc %d ends at %d but arc %d starts at %d",
				i, id, g.arcs[id].To, cycle[(i+1)%len(cycle)], next.From)
		}
	}
	return nil
}

// InducedSubgraph returns the subgraph induced by the given nodes along with
// the mapping back to the original node and arc IDs. nodes must not contain
// duplicates. The i-th node of the subgraph corresponds to nodes[i]; the
// returned arcMap gives, for each subgraph arc ID, the original ArcID.
// Subgraph arcs follow nodes' order and, within a node, g's out-arc order.
// The subgraph has its own index; it shares no memory with g.
func (g *Graph) InducedSubgraph(nodes []NodeID) (sub *Graph, arcMap []ArcID) {
	n := g.NumNodes()
	marks := make([]int32, 2*n)
	set, local := marks[:n], marks[n:]
	for i := range set {
		set[i] = -1
	}
	for i, v := range nodes {
		set[v] = 0
		local[v] = NodeID(i)
	}
	return g.induce(nodes, set, 0, local)
}

// induce builds the subgraph of g induced by nodes, which are exactly the
// nodes v with set[v] == id; local[v] gives each one's index in nodes. A
// counting pass sizes the arc and arc-map slices exactly, and a second pass
// fills them in nodes' order and, within a node, in g's out-arc order. With
// no arcs both results are nil slices.
func (g *Graph) induce(nodes []NodeID, set []int32, id int32, local []NodeID) (*Graph, []ArcID) {
	m := 0
	for _, v := range nodes {
		for _, e := range g.outArcs[g.outStart[v]:g.outStart[v+1]] {
			if set[g.arcs[e].To] == id {
				m++
			}
		}
	}
	if m == 0 {
		return FromArcs(len(nodes), nil), nil
	}
	arcs := make([]Arc, 0, m)
	arcMap := make([]ArcID, 0, m)
	for _, v := range nodes {
		from := local[v]
		for _, e := range g.outArcs[g.outStart[v]:g.outStart[v+1]] {
			a := g.arcs[e]
			if set[a.To] == id {
				arcs = append(arcs, Arc{From: from, To: local[a.To], Weight: a.Weight, Transit: a.Transit})
				arcMap = append(arcMap, e)
			}
		}
	}
	return FromArcs(len(nodes), arcs), arcMap
}
