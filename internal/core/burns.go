package core

import (
	"math"

	"repro/internal/counter"
	"repro/internal/graph"
	"repro/internal/numeric"
)

func init() {
	register("burns", func() Algorithm { return burnsAlg{} })
}

// burnsAlg is (the minimum-mean-cycle version of) Burns' primal-dual
// algorithm [Burns 1991]; the paper notes the algorithm of Cuninghame-Green
// & Yixun [1996] is identical. It solves the paper's Equation 1 LP
//
//	max λ  s.t.  d(v) − d(u) ≤ w(u,v) − λ  for every arc
//
// directly: starting from the feasible point (d ≡ 0, λ = w_min), each
// iteration rebuilds the critical subgraph (arcs with zero slack) from
// scratch, and — while that subgraph is acyclic — computes longest-path
// levels h(v) inside it and takes the largest step θ that keeps every
// constraint satisfied under the reassignment d(v) ← d(v) − θ·h(v),
// λ ← λ + θ. The levels guarantee critical arcs stay critical, so the
// critical subgraph only gains binding structure until it acquires a cycle,
// at which point λ has reached λ* and the cycle is a minimum mean cycle.
//
// The from-scratch rebuild each iteration is exactly why the paper finds
// Burns slower than KO/YTO despite fewer iterations and no heap operations
// (§4.5). Slack arithmetic uses float64 with an adaptive tolerance; the
// terminating cycle is certified with an exact feasibility check, so the
// returned λ* is exact.
type burnsAlg struct{}

func (burnsAlg) Name() string { return "burns" }

func (burnsAlg) Solve(g *graph.Graph, opt Options) (Result, error) {
	if err := checkSolveInput(g); err != nil {
		return Result{}, err
	}
	n := g.NumNodes()
	m := g.NumArcs()
	var counts counter.Counts

	minW, maxW := g.WeightRange()
	scale := math.Max(1, math.Max(math.Abs(float64(minW)), math.Abs(float64(maxW))))
	tol := 1e-7 * scale
	minTol := 1e-13 * scale

	d := make([]float64, n)
	lambda := float64(minW)

	slack := make([]float64, m)
	critical := make([]bool, m)
	indeg := make([]int32, n)
	h := make([]int64, n)
	order := make([]graph.NodeID, 0, n)

	maxIter := opt.maxIter(4*n*n + 100)
	for iter := 0; iter < maxIter; iter++ {
		if err := opt.checkpoint(); err != nil {
			return Result{}, err
		}
		counts.Iterations++

		// Rebuild the critical subgraph from scratch (the non-incremental
		// step that dominates Burns' running time).
		for id := 0; id < m; id++ {
			counts.Relaxations++
			a := g.Arc(graph.ArcID(id))
			slack[id] = float64(a.Weight) - lambda - (d[a.To] - d[a.From])
			critical[id] = slack[id] <= tol
		}

		// Kahn's algorithm over the critical arcs: topological levels, or a
		// cycle if the order is incomplete.
		for v := range indeg {
			indeg[v] = 0
			h[v] = 0
		}
		for id := 0; id < m; id++ {
			if critical[id] {
				indeg[g.Arc(graph.ArcID(id)).To]++
			}
		}
		order = order[:0]
		for v := graph.NodeID(0); int(v) < n; v++ {
			if indeg[v] == 0 {
				order = append(order, v)
			}
		}
		for qi := 0; qi < len(order); qi++ {
			u := order[qi]
			for _, id := range g.OutArcs(u) {
				if !critical[id] {
					continue
				}
				v := g.Arc(id).To
				if nh := h[u] + 1; nh > h[v] {
					h[v] = nh
				}
				indeg[v]--
				if indeg[v] == 0 {
					order = append(order, v)
				}
			}
		}

		if len(order) < n {
			// The critical subgraph is cyclic: extract a critical cycle and
			// certify it exactly.
			cycle, ok := CriticalCycleFrom(g, critical, order)
			if !ok {
				// Kahn's invariant guarantees a critical predecessor for
				// every unremoved node, so extraction can only fail through
				// float inconsistency in the slack classification; tighten
				// the tolerance and rebuild rather than crash.
				tol /= 10
				if tol < minTol {
					return Result{}, ErrIterationLimit
				}
				continue
			}
			counts.CyclesExamined++
			mean := numeric.NewRat(g.CycleWeight(cycle), int64(len(cycle)))
			if neg, _ := hasNegativeCycleScaled(g, mean.Num(), mean.Den(), &counts); !neg {
				return Result{Mean: mean, Cycle: cycle, Exact: true, Counts: counts}, nil
			}
			// Float tolerance produced a spurious cycle; tighten and retry.
			tol /= 10
			if tol < minTol {
				return Result{}, ErrIterationLimit
			}
			continue
		}

		// Dual step: θ = min slack(e)/c(e) over arcs with
		// c(e) = 1 + h(u) − h(v) > 0. Critical arcs have h(v) ≥ h(u)+1,
		// hence c ≤ 0: they stay critical.
		theta := math.Inf(1)
		for id := 0; id < m; id++ {
			a := g.Arc(graph.ArcID(id))
			c := 1 + h[a.From] - h[a.To]
			if c <= 0 {
				continue
			}
			if step := slack[id] / float64(c); step < theta {
				theta = step
			}
		}
		if math.IsInf(theta, 1) {
			// No binding constraint would ever be hit: impossible for a
			// cyclic strongly connected graph.
			return Result{}, ErrIterationLimit
		}
		if theta < 0 {
			theta = 0 // guard against float drift
		}
		lambda += theta
		for v := 0; v < n; v++ {
			d[v] -= theta * float64(h[v])
		}
	}
	return Result{}, ErrIterationLimit
}

// CriticalCycleFrom extracts a cycle among the critical arcs, given the
// (incomplete) Kahn order: nodes not in the order lie on or downstream of a
// cycle; following critical arcs among them must revisit a node. The false
// return (no remaining critical predecessor for some node) is impossible
// under Kahn's invariant — every unremoved node kept a positive critical
// in-degree from unremoved nodes — and is reported instead of panicking so
// the solver can recover from any float-drift inconsistency. It is Burns'
// one critical-cycle walk, for means here and for ratios in internal/ratio.
func CriticalCycleFrom(g *graph.Graph, critical []bool, order []graph.NodeID) ([]graph.ArcID, bool) {
	n := g.NumNodes()
	inOrder := make([]bool, n)
	for _, v := range order {
		inOrder[v] = true
	}
	// Every remaining node kept a positive critical in-degree from remaining
	// nodes (that is why Kahn never removed it), so walking critical
	// predecessors within the remaining set must revisit a node — a cycle.
	pred := func(v graph.NodeID) graph.ArcID {
		for _, id := range g.InArcs(v) {
			if critical[id] && !inOrder[g.Arc(id).From] {
				return id
			}
		}
		return -1
	}
	var start graph.NodeID
	for v := graph.NodeID(0); int(v) < n; v++ {
		if !inOrder[v] {
			start = v
			break
		}
	}
	pos := make(map[graph.NodeID]int, 16)
	var rev []graph.ArcID // arcs walked backwards: rev[i] enters the walk's i-th node
	v := start
	for {
		if at, seen := pos[v]; seen {
			// rev[at:] is the cycle, backwards; reverse into forward order.
			seg := rev[at:]
			cycle := make([]graph.ArcID, len(seg))
			for i, id := range seg {
				cycle[len(seg)-1-i] = id
			}
			return cycle, true
		}
		pos[v] = len(rev)
		id := pred(v)
		if id < 0 {
			return nil, false
		}
		rev = append(rev, id)
		v = g.Arc(id).From
	}
}
