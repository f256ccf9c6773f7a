package ratio

import (
	"math"

	"repro/internal/core"
	"repro/internal/counter"
	"repro/internal/graph"
)

func init() {
	register("burns", func() Algorithm { return burnsRatio{} })
}

// burnsRatio is Burns' algorithm in its original cost-to-time ratio form
// [Burns 1991], developed for the performance analysis of asynchronous
// circuits. It solves max λ s.t. d(v) − d(u) ≤ w(u,v) − λ·t(u,v) by the
// primal-dual method: each iteration rebuilds the critical subgraph from
// scratch, computes transit-weighted longest-path levels h inside it (so
// critical arcs, for which h(v) ≥ h(u) + t(u,v), stay critical) and takes
// the largest step θ preserving feasibility under d(v) ← d(v) − θ·h(v),
// λ ← λ + θ. It terminates when the critical subgraph becomes cyclic, and
// the terminating cycle is certified exactly.
type burnsRatio struct{}

func (burnsRatio) Name() string { return "burns" }

func (burnsRatio) Solve(g *graph.Graph, opt core.Options) (Result, error) {
	if err := checkInput(g); err != nil {
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
	// Initial feasible point: λ small enough that w − λt ≥ 0 for all arcs
	// with t > 0 and w − λ·0 = w ≥ ... arcs with t = 0 need w ≥ d(v) − d(u)
	// = 0, which may fail for negative zero-transit arcs; start from the
	// trivially feasible λ = −(n·|w|max + 1) and potentials from one
	// Bellman–Ford pass at that λ.
	absW := maxW
	if -minW > absW {
		absW = -minW
	}
	lambda := -float64(int64(n)*absW + 1)
	oracle := newOracle(g, opt, &counts)
	defer oracle.Close()
	// Potentials: shortest distances under w − λt (feasible since ρ* > λ).
	{
		neg, _, err := oracle.Probe(-(int64(n)*absW + 1), 1)
		if err != nil {
			return Result{}, err
		}
		if neg {
			// A cycle negative even at λ below every ratio can only mean a
			// non-positive total transit time slipped past validation.
			return Result{}, ErrNonPositiveTransit
		}
		for v, dv := range oracle.Dist() {
			d[v] = float64(dv)
		}
	}

	slack := make([]float64, m)
	critical := make([]bool, m)
	indeg := make([]int32, n)
	h := make([]float64, n)
	order := make([]graph.NodeID, 0, n)

	maxIter := opt.MaxIterations
	if maxIter <= 0 {
		maxIter = 4*n*n + 100
	}
	for iter := 0; iter < maxIter; iter++ {
		if opt.Canceled() {
			return Result{}, core.ErrCanceled
		}
		counts.Iterations++

		for id := 0; id < m; id++ {
			counts.Relaxations++
			a := g.Arc(graph.ArcID(id))
			slack[id] = float64(a.Weight) - lambda*float64(a.Transit) - (d[a.To] - d[a.From])
			critical[id] = slack[id] <= tol
		}

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
				a := g.Arc(id)
				if nh := h[u] + float64(a.Transit); nh > h[a.To] {
					h[a.To] = nh
				}
				indeg[a.To]--
				if indeg[a.To] == 0 {
					order = append(order, a.To)
				}
			}
		}

		if len(order) < n {
			cycle, okc := core.CriticalCycleFrom(g, critical, order)
			if okc {
				counts.CyclesExamined++
				if r, ok := cycleRatio(g, cycle); ok {
					neg, _, err := oracle.Probe(r.Num(), r.Den())
					if err != nil {
						return Result{}, err
					}
					if !neg {
						return Result{Ratio: r, Cycle: cycle, Exact: true, Counts: counts}, nil
					}
				}
			}
			// Either the float tolerance admitted a spurious critical subgraph
			// (extraction failed) or the candidate cycle is not yet optimal;
			// tighten and retry rather than crash.
			tol /= 10
			if tol < minTol {
				return Result{}, ErrIterationLimit
			}
			continue
		}

		theta := math.Inf(1)
		for id := 0; id < m; id++ {
			a := g.Arc(graph.ArcID(id))
			c := float64(a.Transit) + h[a.From] - h[a.To]
			if c <= 1e-9 {
				continue
			}
			if step := slack[id] / c; step < theta {
				theta = step
			}
		}
		if math.IsInf(theta, 1) {
			return Result{}, ErrIterationLimit
		}
		if theta < 0 {
			theta = 0
		}
		lambda += theta
		for v := 0; v < n; v++ {
			d[v] -= theta * h[v]
		}
	}
	return Result{}, ErrIterationLimit
}
