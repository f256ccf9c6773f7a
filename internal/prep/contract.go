package prep

import (
	"slices"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
)

// Contraction is a graph with every maximal chain contracted into one arc,
// split into the cyclic components that graph.CyclicComponents finds, in
// the same order. A chain node has one arc in, one arc out, and no
// self-loop; a chain's interior lies on a cycle only when both its ends are
// in one component, so the contracted graph keeps every cycle, and its
// components are small wherever the input is chain-dominated.
type Contraction struct {
	g     *graph.Graph
	mode  Mode
	h     *graph.Graph   // the contracted graph, numbered in DFS-root order
	links []link         // h's arcs as paths of g
	comp  []int32        // each h node's component, or -1
	local []graph.NodeID // each h node's position in its component
	parts []part
}

// part is one cyclic component of a Contraction.
type part struct {
	nodes             []int32        // h nodes, in the order of their nodes of g
	ids               []graph.NodeID // those nodes of g
	rawNodes, rawArcs int            // the component's size in g
}

// isChain reports whether v has one arc in and one arc out, and the arc is
// not a self-loop.
func isChain(g *graph.Graph, v graph.NodeID) bool {
	return g.InDegree(v) == 1 && g.OutDegree(v) == 1 && g.Arc(g.OutArcs(v)[0]).To != v
}

// Contract contracts every maximal chain of g in one O(n + m) walk and
// splits the result into its cyclic components. It returns nil when g has no
// chain node, so that the caller can work on g itself. Arc sums are kept per
// mode, as Kernelize keeps them.
func Contract(g *graph.Graph, mode Mode) *Contraction {
	n := g.NumNodes()
	var key []int64
	chains := 0
	for v := graph.NodeID(0); int(v) < n; v++ {
		if isChain(g, v) {
			if key == nil {
				key = make([]int64, n)
			}
			key[v] = spliceKey(n, v)
			chains++
		}
	}
	if chains == 0 {
		return nil
	}
	w := walker{g: g, key: key, mode: mode, loops: true}
	m := g.NumArcs() - chains // every arc out of a node that is not a chain node starts one walk
	arcs, links := w.walk(make([]graph.Arc, 0, m), make([]link, 0, m))

	// The contracted graph's nodes are g's nodes that are not chain nodes,
	// and one node for each cycle of chain nodes alone: its smallest node,
	// the one whose key the walk left set. Every other chain node's key is
	// now -1, and key takes over numbering the nodes in g's order.
	var nh int64
	for v, k := range key {
		if k >= 0 {
			key[v] = nh
			nh++
		}
	}
	// One work array holds every per-node array of the contracted graph.
	work := make([]int32, 5*nh)
	byKey, order, gid := work[:nh], work[nh:2*nh], work[2*nh:3*nh]
	for v, p := range key {
		if p >= 0 {
			byKey[p] = graph.NodeID(v)
		}
	}
	// Tarjan's algorithm roots its searches in node order, and a search
	// rooted at a chain node runs straight to the chain's end. So Tarjan on
	// the contracted graph finds the components in g's order when the nodes
	// are numbered as they first appear in that sequence, where a chain's
	// end first appears at its own place or at its chain's smallest node,
	// the latest one to splice. Those chain nodes' slots take their ends.
	for i, a := range arcs {
		if v := links[i].lastNode; links[i].last != 0 && v < a.To {
			key[v] = key[a.To]
		}
	}
	for i := range order {
		order[i] = -1
	}
	next := int32(0)
	for _, p := range key {
		if p >= 0 && order[p] < 0 {
			order[p] = next
			next++
		}
	}
	for p, f := range order {
		gid[f] = byKey[p]
	}
	for i := range arcs {
		arcs[i].From, arcs[i].To = order[key[arcs[i].From]], order[key[arcs[i].To]]
	}
	h := graph.FromArcs(int(nh), arcs)
	scc := graph.StronglyConnectedComponents(h)

	c := &Contraction{g: g, mode: mode, h: h, links: links, comp: work[3*nh : 4*nh], local: work[4*nh:]}
	index := make([]int32, scc.Count) // SCC -> part, or -1
	parts, total := 0, 0
	for ci, members := range scc.Members {
		index[ci] = -1
		if len(members) > 1 || hasLoop(h, members[0]) {
			index[ci] = int32(parts)
			parts++
			total += len(members)
		}
	}
	// Each part lists its nodes, and their nodes of g, in g's order.
	c.parts = make([]part, parts)
	nodes := make([]int32, 2*total)
	off := 0
	for ci, members := range scc.Members {
		if p := index[ci]; p >= 0 {
			end := off + len(members)
			c.parts[p].nodes, c.parts[p].ids = nodes[off:off:end], nodes[total+off:total+off:total+end]
			off = end
		}
	}
	for _, f := range order {
		p := index[scc.Comp[f]]
		c.comp[f] = p
		if p >= 0 {
			c.local[f] = graph.NodeID(len(c.parts[p].nodes))
			c.parts[p].nodes = append(c.parts[p].nodes, f)
			c.parts[p].ids = append(c.parts[p].ids, gid[f])
		}
	}
	for i, a := range arcs {
		if p := c.comp[a.From]; p >= 0 && c.comp[a.To] == p {
			c.parts[p].rawArcs += len(links[i].path)
			c.parts[p].rawNodes += len(links[i].path) - 1
		}
	}
	for p := range c.parts {
		c.parts[p].rawNodes += len(c.parts[p].nodes)
	}
	return c
}

func hasLoop(g *graph.Graph, v graph.NodeID) bool {
	for _, e := range g.OutArcs(v) {
		if g.Arc(e).To == v {
			return true
		}
	}
	return false
}

// Len returns the number of cyclic components.
func (c *Contraction) Len() int { return len(c.parts) }

// Size returns component i's node and arc count in the input graph.
func (c *Contraction) Size(i int) (nodes, arcs int) {
	return c.parts[i].rawNodes, c.parts[i].rawArcs
}

// Component returns component i as graph.CyclicComponents extracts it from
// the input graph: the subgraph its nodes induce, in ascending node order
// and then the input's out-arc order. It finds each arc's head by binary
// search, so building one component costs its own size, not the graph's.
func (c *Contraction) Component(i int) graph.Component {
	p := c.parts[i]
	nodes := make([]graph.NodeID, 0, p.rawNodes)
	for j, f := range p.nodes {
		nodes = append(nodes, p.ids[j])
		for _, e := range c.h.OutArcs(f) {
			if c.comp[c.h.Arc(e).To] == int32(i) {
				path := c.links[e].path
				for _, id := range path[:len(path)-1] {
					nodes = append(nodes, c.g.Arc(id).To)
				}
			}
		}
	}
	slices.Sort(nodes)
	arcs := make([]graph.Arc, 0, p.rawArcs)
	arcMap := make([]graph.ArcID, 0, p.rawArcs)
	for j, v := range nodes {
		for _, e := range c.g.OutArcs(v) {
			a := c.g.Arc(e)
			if to, ok := slices.BinarySearch(nodes, a.To); ok {
				arcs = append(arcs, graph.Arc{From: graph.NodeID(j), To: graph.NodeID(to), Weight: a.Weight, Transit: a.Transit})
				arcMap = append(arcMap, e)
			}
		}
	}
	return graph.Component{Graph: graph.FromComponentArcs(len(nodes), arcs), Nodes: nodes, ArcMap: arcMap}
}

// Kernelize reduces component i. The kernel's node map, expansion paths and
// candidate cycle use the input graph's IDs, and it reports the component's
// size in the input graph.
func (c *Contraction) Kernelize(s *Scratch, i int) *Kernel {
	p := c.parts[i]
	m := 0
	for _, f := range p.nodes {
		for _, e := range c.h.OutArcs(f) {
			if c.comp[c.h.Arc(e).To] == int32(i) {
				m++
			}
		}
	}
	arcs := make([]graph.Arc, 0, m)
	meta := s.meta[:0]
	for j, f := range p.nodes {
		for _, e := range c.h.OutArcs(f) {
			a := c.h.Arc(e)
			if c.comp[a.To] != int32(i) {
				continue
			}
			l := c.links[e]
			l.src = int32(len(arcs))
			arcs = append(arcs, graph.Arc{From: graph.NodeID(j), To: c.local[a.To], Weight: a.Weight, Transit: a.Transit})
			meta = append(meta, l)
		}
	}
	s.meta = meta
	return s.reduce(graph.FromArcs(len(p.nodes), arcs), meta, p.ids, c.g, p.rawNodes, p.rawArcs, c.mode)
}

// KernelizeTraced is c.Kernelize followed by component i's KernelEvent on
// tr, timed only when tr is enabled.
func (c *Contraction) KernelizeTraced(s *Scratch, i int, tr *obs.Trace) *Kernel {
	if !tr.Enabled() {
		return c.Kernelize(s, i)
	}
	start := time.Now()
	return emit(tr, i, start, c.Kernelize(s, i))
}
