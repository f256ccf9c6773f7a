package graph

import "sync"

// SCC holds a strongly-connected-component decomposition of a Graph.
// Components are numbered 0..Count-1 in reverse topological order of the
// condensation (i.e. a component only has condensation arcs into lower-
// numbered components when produced by Tarjan... Tarjan emits components in
// reverse topological order, so arcs go from higher-numbered to lower-
// numbered components).
type SCC struct {
	// Comp maps each node to its component number.
	Comp []int32
	// Count is the number of components.
	Count int
	// Members lists the nodes of each component.
	Members [][]NodeID
}

// StronglyConnectedComponents computes the SCC decomposition of g with an
// iterative Tarjan algorithm (no recursion, so million-node graphs are safe).
// It allocates a fixed number of arrays whatever the graph's shape.
func StronglyConnectedComponents(g *Graph) *SCC {
	n := g.NumNodes()
	const unvisited = -1
	comp := make([]int32, n)
	// Everything else lives in one work array whose parts are each bounded
	// by n, so no append ever regrows: the DFS index and lowlink of every
	// node, the out-arc cursor of every node on the DFS path, the Tarjan
	// stack and the DFS path itself. A visited node is on the Tarjan stack
	// exactly while its comp is still -1.
	work := make([]int32, 5*n)
	index, low, cursor := work[:n], work[n:2*n], work[2*n:3*n]
	stack, path := work[3*n:3*n:4*n], work[4*n:4*n:5*n]
	for i := range index {
		index[i] = unvisited
		comp[i] = -1
	}

	var counter, nComp int32
	for root := NodeID(0); int(root) < n; root++ {
		if index[root] != unvisited {
			continue
		}
		index[root], low[root], cursor[root] = counter, counter, g.outStart[root]
		counter++
		stack = append(stack, root)
		path = append(path, root)

		for len(path) > 0 {
			v := path[len(path)-1]
			if c := cursor[v]; c < g.outStart[v+1] {
				cursor[v] = c + 1
				w := g.arcs[g.outArcs[c]].To
				if index[w] == unvisited {
					index[w], low[w], cursor[w] = counter, counter, g.outStart[w]
					counter++
					stack = append(stack, w)
					path = append(path, w)
				} else if comp[w] < 0 && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			// Post-order: pop v.
			path = path[:len(path)-1]
			if len(path) > 0 {
				parent := path[len(path)-1]
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					comp[w] = nComp
					if w == v {
						break
					}
				}
				nComp++
			}
		}
	}

	return &SCC{Comp: comp, Count: int(nComp), Members: groupMembers(comp, nComp)}
}

// groupMembers builds the per-component member lists (ascending node order
// within each component) over one shared backing array: count, prefix-sum,
// fill. The obvious per-component append costs one allocation per component,
// which on a mostly-acyclic graph is O(n) tiny slices — slow enough that a
// header-only input declaring tens of millions of isolated nodes could stall
// a single SCC call for multiple seconds.
func groupMembers(comp []int32, nComp int32) [][]NodeID {
	start := make([]int32, nComp+1)
	for _, c := range comp {
		start[c+1]++
	}
	for i := int32(0); i < nComp; i++ {
		start[i+1] += start[i]
	}
	// start[c] is component c's fill cursor; it ends where c+1 begins, so a
	// shift by one slot restores the prefix sums, as in buildIndex.
	backing := make([]NodeID, len(comp))
	for v, c := range comp {
		backing[start[c]] = NodeID(v)
		start[c]++
	}
	copy(start[1:], start[:nComp])
	start[0] = 0
	members := make([][]NodeID, nComp)
	for c := int32(0); c < nComp; c++ {
		members[c] = backing[start[c]:start[c+1]:start[c+1]]
	}
	return members
}

// KosarajuSCC computes the same decomposition with Kosaraju's two-pass
// algorithm. Component numbering may differ from Tarjan's; it exists as an
// independent implementation for cross-checking in tests.
func KosarajuSCC(g *Graph) *SCC {
	n := g.NumNodes()
	visited := make([]bool, n)
	order := make([]NodeID, 0, n)

	// First pass: finish order on g (iterative DFS with explicit post-visit).
	type frame struct {
		v    NodeID
		arc  int32
		post bool
	}
	var dfs []frame
	for root := NodeID(0); int(root) < n; root++ {
		if visited[root] {
			continue
		}
		visited[root] = true
		dfs = append(dfs[:0], frame{v: root})
		for len(dfs) > 0 {
			f := &dfs[len(dfs)-1]
			out := g.OutArcs(f.v)
			advanced := false
			for int(f.arc) < len(out) {
				w := g.Arc(out[f.arc]).To
				f.arc++
				if !visited[w] {
					visited[w] = true
					dfs = append(dfs, frame{v: w})
					advanced = true
					break
				}
			}
			if advanced {
				continue
			}
			order = append(order, f.v)
			dfs = dfs[:len(dfs)-1]
		}
	}

	// Second pass: DFS on the reverse graph in reverse finish order.
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	var nComp int32
	var stack []NodeID
	for i := len(order) - 1; i >= 0; i-- {
		root := order[i]
		if comp[root] != -1 {
			continue
		}
		comp[root] = nComp
		stack = append(stack[:0], root)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, id := range g.InArcs(v) {
				w := g.Arc(id).From
				if comp[w] == -1 {
					comp[w] = nComp
					stack = append(stack, w)
				}
			}
		}
		nComp++
	}

	return &SCC{Comp: comp, Count: int(nComp), Members: groupMembers(comp, nComp)}
}

// reachWS is pooled scratch for IsStronglyConnected, which sits on every
// solver's input-validation path and would otherwise allocate per solve.
type reachWS struct {
	seen  []bool
	stack []NodeID
}

var reachPool = sync.Pool{New: func() any { return new(reachWS) }}

// IsStronglyConnected reports whether g has exactly one SCC (and at least
// one node). It uses two pooled reachability sweeps (forward over OutArcs,
// backward over InArcs) rather than a full Tarjan decomposition, so warm
// calls allocate nothing.
func IsStronglyConnected(g *Graph) bool {
	n := g.NumNodes()
	if n == 0 {
		return false
	}
	ws := reachPool.Get().(*reachWS)
	defer reachPool.Put(ws)
	if cap(ws.seen) < n {
		ws.seen = make([]bool, n)
	}
	seen := ws.seen[:n]
	stack := ws.stack[:0]
	defer func() { ws.stack = stack }()

	sweep := func(forward bool) bool {
		for i := range seen {
			seen[i] = false
		}
		seen[0] = true
		stack = append(stack[:0], 0)
		count := 1
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if forward {
				for _, id := range g.OutArcs(v) {
					if w := g.Arc(id).To; !seen[w] {
						seen[w] = true
						count++
						stack = append(stack, w)
					}
				}
			} else {
				for _, id := range g.InArcs(v) {
					if w := g.Arc(id).From; !seen[w] {
						seen[w] = true
						count++
						stack = append(stack, w)
					}
				}
			}
		}
		return count == n
	}
	return sweep(true) && sweep(false)
}

// HasCycle reports whether g contains a directed cycle (an SCC with more
// than one node, or a self-loop).
func HasCycle(g *Graph) bool {
	scc := StronglyConnectedComponents(g)
	for _, members := range scc.Members {
		if len(members) > 1 {
			return true
		}
	}
	for _, a := range g.Arcs() {
		if a.From == a.To {
			return true
		}
	}
	return false
}

// CyclicComponents returns, for each SCC that can contain a cycle (more than
// one node, or a single node with a self-loop), its induced subgraph plus
// the node list and arc mapping back to g. This is the decomposition step
// every algorithm driver performs before assuming strong connectivity.
//
// Components come in Tarjan order. A node's subgraph ID is its position in
// the component's ascending member list, held in one dense array rather than
// a map, and each subgraph's arcs follow its members' out-arcs in g's order,
// exactly as InducedSubgraph(Nodes) would build them. Each component's
// subgraph and arc map are its own exactly sized slices, so dropping a
// component frees them.
func CyclicComponents(g *Graph) []Component {
	scc := StronglyConnectedComponents(g)
	count := 0
	for _, members := range scc.Members {
		if isCyclic(g, members) {
			count++
		}
	}
	if count == 0 {
		return nil
	}
	local := make([]NodeID, g.NumNodes())
	out := make([]Component, 0, count)
	for c, members := range scc.Members {
		if !isCyclic(g, members) {
			continue
		}
		for i, v := range members {
			local[v] = NodeID(i)
		}
		sub, arcMap := g.induce(members, scc.Comp, int32(c), local)
		out = append(out, Component{Graph: sub, Nodes: members, ArcMap: arcMap})
	}
	return out
}

// isCyclic reports whether an SCC can hold a cycle: it has more than one
// node, or its single node has a self-loop.
func isCyclic(g *Graph, members []NodeID) bool {
	if len(members) != 1 {
		return true
	}
	v := members[0]
	for _, id := range g.OutArcs(v) {
		if g.arcs[id].To == v {
			return true
		}
	}
	return false
}

// Component is one cyclic SCC extracted by CyclicComponents.
type Component struct {
	// Graph is the induced subgraph over the component's nodes, renumbered
	// 0..len(Nodes)-1.
	Graph *Graph
	// Nodes maps subgraph node i back to the original node Nodes[i].
	Nodes []NodeID
	// ArcMap maps subgraph arc IDs back to original arc IDs.
	ArcMap []ArcID
}

// TopoOrder returns a topological order of an acyclic graph, or ok=false if
// g has a cycle. Used by Burns' algorithm on the (acyclic) critical subgraph.
func TopoOrder(g *Graph) (order []NodeID, ok bool) {
	n := g.NumNodes()
	indeg := make([]int32, n)
	for _, a := range g.Arcs() {
		indeg[a.To]++
	}
	queue := make([]NodeID, 0, n)
	for v := NodeID(0); int(v) < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	order = make([]NodeID, 0, n)
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		order = append(order, v)
		for _, id := range g.OutArcs(v) {
			w := g.Arc(id).To
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	return order, len(order) == n
}
