package ratio

import (
	"repro/internal/core"
	"repro/internal/counter"
	"repro/internal/graph"
	"repro/internal/numeric"
)

func init() {
	register("lawler", func() Algorithm { return lawlerRatio{} })
}

// lawlerRatio is Lawler's binary search in its original ratio form: ρ* lies
// between the smallest and largest single-arc ratios; each probe λ asks
// whether some cycle satisfies w(C) − λ·t(C) < 0 via Bellman–Ford on the
// reduced weights. The search bisects a fixed-denominator grid, recording
// the best negative cycle; an exact endgame then re-probes at that cycle's
// exact ratio until the probe certifies feasibility (each failed probe
// yields a strictly better cycle, so the endgame terminates). Under
// Options.Epsilon > 0 the endgame is skipped, reproducing the paper's
// approximate variant.
type lawlerRatio struct{}

func (lawlerRatio) Name() string { return "lawler" }

// lawlerGrid returns the bisection grid denominator S (a power of two ≥ 2)
// for a graph with cycle-ratio bound `bound` = n·max|w|, `nodes` nodes and
// maximum transit `maxT`, under tolerance eps (0 means exact mode).
//
// Two invariants, both regression-pinned:
//
//   - eps > 0: the grid spacing 1/S is at most eps, so the bisection's final
//     cell [lo/S, hi/S) — and therefore the returned approximation — is
//     within eps of ρ*. (The former loop shrank S while 1/S < eps,
//     terminating with spacing ≥ eps and overshooting the tolerance by up
//     to one cell.)
//   - every probe stays exact: a probe at grid point mid ∈ [−S·bound,
//     S·bound+1] relaxes weights S·w − mid·t over n passes, so S is
//     coarsened until (bound+1)·(4·S·nodes·maxT+1) ≤ 2^61. The divisor is
//     built with checked multiplication: at the documented limits
//     (S=2^16 × n=2^24 × t≈2^31) the former expression
//     4*S*nodes*maxT+1 itself overflowed int64, the guard compared against
//     garbage, and S never shrank — letting the probe arithmetic overflow
//     silently.
//
// When even S = 2 cannot satisfy the probe bound, the oracle's own
// per-probe range check reports ErrNumericRange instead of wrapping.
func lawlerGrid(bound, nodes, maxT int64, eps float64) int64 {
	S := int64(1 << 16)
	if eps > 0 {
		// Smallest power of two with spacing 1/S ≤ eps, capped so S·bound
		// stays far from the int64 edge even for large bounds.
		S = 2
		for 1/float64(S) > eps && S < int64(1)<<30 {
			S <<= 1
		}
	}
	for S > 2 {
		d, ok := numeric.CheckedMul(4*S, nodes)
		if ok {
			d, ok = numeric.CheckedMul(d, maxT)
		}
		if ok && d < int64(1)<<61 && (bound+1) <= (int64(1)<<61)/(d+1) {
			break
		}
		S >>= 1
	}
	return S
}

func (lawlerRatio) Solve(g *graph.Graph, opt core.Options) (Result, error) {
	if err := checkInput(g); err != nil {
		return Result{}, err
	}
	var counts counter.Counts

	// ρ* ∈ [−B, B] with B = n·max|w| (cycle weight bound over transit ≥ 1).
	minW, maxW := g.WeightRange()
	absW := maxW
	if -minW > absW {
		absW = -minW
	}
	if absW < 1 {
		absW = 1
	}
	bound := int64(g.NumNodes()) * absW

	// Grid denominator: fine enough to separate most ratios (and to honor
	// Options.Epsilon); the endgame restores exactness regardless.
	S := lawlerGrid(bound, int64(g.NumNodes()), maxTransit(g), opt.Epsilon)

	oracle := newOracle(g, opt, &counts)
	defer oracle.Close()

	var (
		bestRatio numeric.Rat
		bestCycle []graph.ArcID
		haveBest  bool
	)
	record := func(cycle []graph.ArcID) {
		r, ok := cycleRatio(g, cycle)
		if !ok {
			return
		}
		if !haveBest || r.Less(bestRatio) {
			bestRatio, bestCycle, haveBest = r, cycle, true
		}
	}

	lo, hi := -S*bound, S*bound+1
	for hi-lo > 1 {
		counts.Iterations++
		mid := lo + (hi-lo)/2
		neg, cyc, err := oracle.Probe(mid, S)
		if err != nil {
			return Result{}, err
		}
		if !neg {
			lo = mid
			continue
		}
		hi = mid
		record(cyc)
	}

	if opt.Epsilon > 0 {
		if !haveBest {
			return Result{Ratio: numeric.NewRat(lo, S), Exact: false, Counts: counts}, nil
		}
		return Result{Ratio: bestRatio, Cycle: bestCycle, Exact: false, Counts: counts}, nil
	}

	if !haveBest {
		// Every probe was feasible: ρ* ∈ [lo/S, hi/S). Fall back to a
		// policy cycle to seed the endgame.
		oracle.firstArcCycles(func(cycle []graph.ArcID) {
			c := make([]graph.ArcID, len(cycle))
			copy(c, cycle)
			record(c)
		})
		if !haveBest {
			return Result{}, ErrAcyclic
		}
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
		neg, cyc, err := oracle.Probe(bestRatio.Num(), bestRatio.Den())
		if err != nil {
			return Result{}, err
		}
		if !neg {
			return Result{Ratio: bestRatio, Cycle: bestCycle, Exact: true, Counts: counts}, nil
		}
		r, ok := cycleRatio(g, cyc)
		if !ok || !r.Less(bestRatio) {
			return Result{}, ErrIterationLimit
		}
		bestRatio, bestCycle = r, cyc
	}
	return Result{}, ErrIterationLimit
}

func maxTransit(g *graph.Graph) int64 {
	var t int64 = 1
	for _, a := range g.Arcs() {
		if a.Transit > t {
			t = a.Transit
		}
	}
	return t
}
