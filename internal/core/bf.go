package core

import (
	"fmt"

	"repro/internal/counter"
	"repro/internal/graph"
	"repro/internal/numeric"
)

// scaledOverflows reports whether exact int64 arithmetic on the reduced
// weights q·w − p·t of g could overflow; see scaledPerArc.
func scaledOverflows(g *graph.Graph, p, q, maxT int64) bool {
	_, ok := scaledPerArc(g, p, q, maxT)
	return !ok
}

// scaledPerArc bounds the reduced arc weights of G_λ at λ = p/q when every
// transit lies in [−maxT, maxT] (maxT = 1 for a mean solve), returning
// perArc = q·max|w| + |p|·maxT ≥ max|q·w − p·t| from checked products, and
// reports whether n + 1 of them summed stay inside ±2^62. When ok, every
// path sum of at most n arcs, and so every Bellman–Ford distance and every
// potential within ±(n−1)·perArc, leaves room for the per-arc checks
// q·w − p·t + π(v) − π(u) without wrapping.
func scaledPerArc(g *graph.Graph, p, q, maxT int64) (perArc int64, ok bool) {
	minW, maxW := g.WeightRange()
	absW := maxW
	if -minW > absW {
		absW = -minW
	}
	absP := abs64(p)
	const safe = int64(1) << 62
	if absP < 0 || (absW != 0 && q > safe/absW) || (maxT != 0 && absP > safe/maxT) {
		return 0, false
	}
	perArc = q*absW + absP*maxT
	if perArc < 0 {
		return 0, false
	}
	n := int64(g.NumNodes()) + 1
	return perArc, perArc <= safe/n
}

// transit returns the transit time of a as a solve reads it: 1 for a mean
// solve (unit), the arc's Transit field otherwise.
func transit(a graph.Arc, unit bool) int64 {
	if unit {
		return 1
	}
	return a.Transit
}

// maxTransit bounds |t| over g's arcs as a solve reads them: 1 for a mean
// solve (unit), max|Transit| otherwise.
func maxTransit(g *graph.Graph, unit bool) int64 {
	if unit {
		return 1
	}
	lo, hi := g.TransitRange()
	return max(hi, -lo)
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
	return bellmanFordScaledInto(g, p, q, true, counts, make([]int64, n), make([]graph.ArcID, n))
}

// bellmanFordScaledInto is bellmanFordScaled on the reduced weights
// q·w(e) − p·t(e), with t read through transit, and with caller-provided
// scratch (both slices must have length g.NumNodes()); the returned dist
// aliases the provided slice. Hot paths pass pooled workspace slices so
// repeated feasibility checks allocate nothing.
func bellmanFordScaledInto(g *graph.Graph, p, q int64, unit bool, counts *counter.Counts, dist []int64, parent []graph.ArcID) ([]int64, []graph.ArcID) {
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
			w := q*a.Weight - p*transit(a, unit)
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
	return hasNegativeCycleScaledInto(g, p, q, true, counts, make([]int64, n), make([]graph.ArcID, n))
}

// hasNegativeCycleScaledInto is hasNegativeCycleScaled on the reduced
// weights q·w − p·t, with caller-provided scratch; see
// bellmanFordScaledInto.
func hasNegativeCycleScaledInto(g *graph.Graph, p, q int64, unit bool, counts *counter.Counts, dist []int64, parent []graph.ArcID) (bool, []graph.ArcID) {
	if counts != nil {
		counts.NegativeCycleChecks++
	}
	_, neg := bellmanFordScaledInto(g, p, q, unit, counts, dist, parent)
	return neg != nil, neg
}

// extractCriticalCycle returns a cycle of g whose value is exactly lambda,
// given that lambda equals the optimum λ* under the transit view unit. It
// computes shortest distances in the scaled G_λ*, keeps the tight arcs
// (zero reduced slack — the paper's criticality criterion), and returns any
// cycle of the tight subgraph; every such cycle telescopes to reduced
// weight zero, i.e. value exactly λ* when its transit is positive (a ratio
// graph without zero-transit cycles, as every ratio engine demands).
func extractCriticalCycle(g *graph.Graph, lambda numeric.Rat, unit bool) ([]graph.ArcID, error) {
	p, q := lambda.Num(), lambda.Den()
	if scaledOverflows(g, p, q, maxTransit(g, unit)) {
		return nil, ErrWeightRange
	}
	n := g.NumNodes()
	ws := getExtractWS(n)
	defer ws.release()
	dist, neg := bellmanFordScaledInto(g, p, q, unit, nil, ws.dist, ws.parent)
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
				if dist[a.From]+q*a.Weight-p*transit(a, unit) != dist[a.To] {
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
		cycle, err = extractCriticalCycle(g, lambda, true)
		if err != nil {
			return Result{}, err
		}
	}
	return Result{Mean: lambda, Cycle: cycle, Exact: true, Counts: counts}, nil
}
