package ratio

import (
	"repro/internal/core"
	"repro/internal/counter"
	"repro/internal/graph"
	"repro/internal/numeric"
)

func init() {
	register("dinkelbach", func() Algorithm { return dinkelbachAlg{} })
}

// dinkelbachAlg is Dinkelbach's parametric method specialized to the
// minimum cycle ratio (sometimes attributed to Fox in the cycle context):
// probe λ equal to the ratio of the best cycle found so far; if G_λ has a
// negative cycle, that cycle has a strictly smaller ratio and becomes the
// next probe, otherwise the current cycle is optimal. The λ sequence
// strictly decreases through actual cycle ratios, so termination is
// guaranteed, and convergence is superlinear in practice — typically a
// handful of Bellman–Ford probes. This is the classical alternative to
// Lawler's bisection that the paper's framework accommodates but does not
// measure; it is included for completeness and as the engine behind the
// exact endgames of the OA solvers.
type dinkelbachAlg struct{}

func (dinkelbachAlg) Name() string { return "dinkelbach" }

func (dinkelbachAlg) Solve(g *graph.Graph, opt core.Options) (Result, error) {
	if err := checkInput(g); err != nil {
		return Result{}, err
	}
	var counts counter.Counts

	oracle := newOracle(g, opt, &counts)
	defer oracle.Close()

	// Start from any cycle: follow the first out-arc from every node.
	var (
		best      numeric.Rat
		bestCycle []graph.ArcID
		haveBest  bool
	)
	oracle.firstArcCycles(func(cycle []graph.ArcID) {
		r, ok := cycleRatio(g, cycle)
		if !ok {
			return
		}
		if !haveBest || r.Less(best) {
			best = r
			bestCycle = append([]graph.ArcID(nil), cycle...)
			haveBest = true
		}
	})
	if !haveBest {
		return Result{}, ErrAcyclic
	}

	maxIter := opt.MaxIterations
	if maxIter <= 0 {
		maxIter = g.NumNodes()*g.NumArcs() + 64
	}
	for iter := 0; iter < maxIter; iter++ {
		if opt.Canceled() {
			return Result{}, core.ErrCanceled
		}
		counts.Iterations++
		neg, cyc, err := oracle.Probe(best.Num(), best.Den())
		if err != nil {
			return Result{}, err
		}
		if !neg {
			return Result{Ratio: best, Cycle: bestCycle, Exact: true, Counts: counts}, nil
		}
		counts.CyclesExamined++
		r, ok := cycleRatio(g, cyc)
		if !ok || !r.Less(best) {
			return Result{}, ErrIterationLimit
		}
		best, bestCycle = r, cyc
	}
	return Result{}, ErrIterationLimit
}
