package core

import (
	"fmt"

	"repro/internal/counter"
	"repro/internal/graph"
	"repro/internal/numeric"
)

// scaledOverflows reports whether exact int64 arithmetic on the reduced
// weights q·w − p of g could overflow; see scaledPerArc.
func scaledOverflows(g *graph.Graph, p, q int64) bool {
	_, ok := scaledPerArc(g, p, q)
	return !ok
}

// scaledPerArc bounds the reduced arc weights of G_λ at λ = p/q, returning
// perArc ≥ max|q·w − p|, and reports whether n + 1 of them summed stay
// inside ±2^62. When ok, every path sum of at most n arcs, and so every
// Bellman–Ford distance and every potential within ±(n−1)·perArc, leaves
// room for the per-arc checks q·w − p + π(v) − π(u) without wrapping.
func scaledPerArc(g *graph.Graph, p, q int64) (perArc int64, ok bool) {
	minW, maxW := g.WeightRange()
	absW := maxW
	if -minW > absW {
		absW = -minW
	}
	perArc = q*absW + abs64(p)
	if perArc < 0 {
		return 0, false
	}
	n := int64(g.NumNodes()) + 1
	const safe = int64(1) << 62
	return perArc, perArc <= safe/n
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// bellmanFordScaled runs Bellman–Ford on the reduced weights q·w(e) − p
// (the graph G_λ with λ = p/q, scaled to exact integers) from a virtual
// source connected to every node with weight 0. It returns the distance
// vector when no negative cycle exists, or a negative cycle (as arc IDs)
// otherwise. counts, if non-nil, accumulates relaxation counts.
func bellmanFordScaled(g *graph.Graph, p, q int64, counts *counter.Counts) (dist []int64, negCycle []graph.ArcID) {
	n := g.NumNodes()
	return bellmanFordScaledInto(g, p, q, counts, make([]int64, n), make([]graph.ArcID, n))
}

// bellmanFordScaledInto is bellmanFordScaled with caller-provided scratch
// (both slices must have length g.NumNodes()); the returned dist aliases
// the provided slice. Hot paths pass pooled workspace slices so repeated
// feasibility checks allocate nothing.
func bellmanFordScaledInto(g *graph.Graph, p, q int64, counts *counter.Counts, dist []int64, parent []graph.ArcID) ([]int64, []graph.ArcID) {
	n := g.NumNodes()
	for i := range dist {
		dist[i] = 0
	}
	for i := range parent {
		parent[i] = -1
	}
	arcs := g.Arcs()
	lastChanged := graph.NodeID(-1)
	for pass := 0; pass < n; pass++ {
		lastChanged = -1
		for id, a := range arcs {
			if counts != nil {
				counts.Relaxations++
			}
			w := q*a.Weight - p
			if nd := dist[a.From] + w; nd < dist[a.To] {
				dist[a.To] = nd
				parent[a.To] = graph.ArcID(id)
				lastChanged = a.To
			}
		}
		if lastChanged == -1 {
			return dist, nil
		}
	}
	// A node changed on the n-th pass: a negative cycle exists. Walk the
	// parent chain n steps to land inside the cycle, then collect it.
	v := lastChanged
	for i := 0; i < n; i++ {
		v = g.Arc(parent[v]).From
	}
	start := v
	var rev []graph.ArcID
	for {
		id := parent[v]
		rev = append(rev, id)
		v = g.Arc(id).From
		if v == start {
			break
		}
	}
	// rev lists arcs backwards (ending at start); reverse to get a forward
	// closed walk.
	negCycle := make([]graph.ArcID, len(rev))
	for i, id := range rev {
		negCycle[len(rev)-1-i] = id
	}
	return nil, negCycle
}

// hasNegativeCycleScaled reports whether G_{p/q} has a negative cycle,
// returning one if so.
func hasNegativeCycleScaled(g *graph.Graph, p, q int64, counts *counter.Counts) (bool, []graph.ArcID) {
	n := g.NumNodes()
	return hasNegativeCycleScaledInto(g, p, q, counts, make([]int64, n), make([]graph.ArcID, n))
}

// hasNegativeCycleScaledInto is hasNegativeCycleScaled with caller-provided
// scratch; see bellmanFordScaledInto.
func hasNegativeCycleScaledInto(g *graph.Graph, p, q int64, counts *counter.Counts, dist []int64, parent []graph.ArcID) (bool, []graph.ArcID) {
	if counts != nil {
		counts.NegativeCycleChecks++
	}
	_, neg := bellmanFordScaledInto(g, p, q, counts, dist, parent)
	return neg != nil, neg
}

// extractCriticalCycle returns a cycle of g whose mean is exactly lambda,
// given that lambda equals the minimum cycle mean λ*. It computes shortest
// distances in the scaled G_λ*, keeps the tight arcs (zero reduced slack —
// the paper's criticality criterion), and returns any cycle of the tight
// subgraph; every such cycle telescopes to reduced weight zero, i.e. mean
// exactly λ*.
func extractCriticalCycle(g *graph.Graph, lambda numeric.Rat) ([]graph.ArcID, error) {
	p, q := lambda.Num(), lambda.Den()
	if scaledOverflows(g, p, q) {
		return nil, ErrWeightRange
	}
	n := g.NumNodes()
	ws := getExtractWS(n)
	defer ws.release()
	dist, neg := bellmanFordScaledInto(g, p, q, nil, ws.dist, ws.parent)
	if neg != nil {
		return nil, fmt.Errorf("core: λ = %v is below the minimum cycle mean", lambda)
	}
	// Find a cycle among tight arcs with an iterative DFS (white/gray/black).
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := ws.color
	onPath := ws.onPath // arc taken to reach each gray node
	stack := ws.stack
	defer func() { ws.onPath, ws.stack = onPath, stack }()
	for root := graph.NodeID(0); int(root) < n; root++ {
		if color[root] != white {
			continue
		}
		color[root] = gray
		stack = append(stack[:0], ecFrame{v: root})
		onPath = onPath[:0]
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			out := g.OutArcs(f.v)
			advanced := false
			for int(f.arc) < len(out) {
				id := out[f.arc]
				f.arc++
				a := g.Arc(id)
				if dist[a.From]+q*a.Weight-p != dist[a.To] {
					continue // not tight
				}
				w := a.To
				switch color[w] {
				case gray:
					// Found a tight cycle: the path arcs from w onward, plus id.
					var cycle []graph.ArcID
					// Locate w on the current stack.
					idx := -1
					for i := range stack {
						if stack[i].v == w {
							idx = i
							break
						}
					}
					for i := idx; i < len(stack)-1; i++ {
						cycle = append(cycle, onPath[i])
					}
					cycle = append(cycle, id)
					return cycle, nil
				case white:
					color[w] = gray
					onPath = append(onPath, id)
					stack = append(stack, ecFrame{v: w})
					advanced = true
				}
				if advanced {
					break
				}
			}
			if advanced {
				continue
			}
			color[f.v] = black
			stack = stack[:len(stack)-1]
			if len(onPath) > 0 {
				onPath = onPath[:len(onPath)-1]
			}
		}
	}
	return nil, fmt.Errorf("core: no cycle of mean %v exists (λ* is smaller than claimed)", lambda)
}

// finishExact packages an exact λ* into a Result, extracting a critical
// cycle unless the algorithm already produced one.
func finishExact(g *graph.Graph, lambda numeric.Rat, cycle []graph.ArcID, counts counter.Counts) (Result, error) {
	if len(cycle) == 0 {
		var err error
		cycle, err = extractCriticalCycle(g, lambda)
		if err != nil {
			return Result{}, err
		}
	}
	return Result{Mean: lambda, Cycle: cycle, Exact: true, Counts: counts}, nil
}

// policyCycles finds all cycles of a functional graph given by one chosen
// out-arc per node (arc IDs into g; policy[v] must leave v). fn is called
// once per cycle with the arc sequence; the slice is reused across calls.
func policyCycles(g *graph.Graph, policy []graph.ArcID, fn func(cycle []graph.ArcID)) {
	var s pcScratch
	s.policyCycles(g, policy, fn, nil)
}

// policyCycles is the scratch-reusing form of the free function, the one
// functional-graph walker behind Howard's iterations, Madani's seed and OA's
// endgame. Walks start at every node no earlier walk reached, in node order,
// and follow policy arcs until they meet a node already seen. A walk that
// meets itself has closed a new cycle: fn gets its arcs in walk order,
// starting with the arc out of the node where the walk entered it. tail, when
// non-nil, then gets the walk's nodes before that cycle (all of them when
// the walk ran into an earlier walk's node), in walk order, so the last
// one's policy successor is already on a reported cycle or an earlier walk.
// Both slices are reused across calls.
func (s *pcScratch) policyCycles(g *graph.Graph, policy []graph.ArcID, fn func(cycle []graph.ArcID), tail func(walk []graph.NodeID)) {
	n := len(policy)
	s.state = grow(s.state, n) // 0 unvisited, 1 in current walk, 2 done
	for i := range s.state {
		s.state[i] = 0
	}
	s.walkPos = grow(s.walkPos, n)
	state, walkPos := s.state, s.walkPos
	arcs := g.Arcs()
	walk := s.walk[:0]
	cycle := s.cycle[:0]
	defer func() { s.walk, s.cycle = walk, cycle }()
	for root := 0; root < n; root++ {
		if state[root] != 0 {
			continue
		}
		walk = walk[:0]
		v := graph.NodeID(root)
		for state[v] == 0 {
			state[v] = 1
			walkPos[v] = int32(len(walk))
			walk = append(walk, v)
			v = arcs[policy[v]].To
		}
		end := len(walk)
		if state[v] == 1 {
			// Nodes from walkPos[v] onward form a cycle.
			end = int(walkPos[v])
			cycle = cycle[:0]
			for _, u := range walk[end:] {
				cycle = append(cycle, policy[u])
			}
			fn(cycle)
		}
		if tail != nil && end > 0 {
			tail(walk[:end])
		}
		for _, u := range walk {
			state[u] = 2
		}
	}
}
