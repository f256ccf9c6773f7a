package core

import (
	"math"

	"repro/internal/counter"
	"repro/internal/graph"
	"repro/internal/ncd"
	"repro/internal/numeric"
)

func init() {
	register("lawler", func() Algorithm { return lawlerAlg{} })
}

// lawlerAlg is Lawler's binary search [Lawler 1976]: λ* lies in
// [w_min, w_max]; probe the midpoint λ and ask whether G_λ has a negative
// cycle (Bellman–Ford). A negative cycle means λ > λ*, so move the upper
// bound down (to the exact mean of the detected cycle — always a valid
// upper bound); otherwise move the lower bound up. The paper's version
// stops when the interval is smaller than a precision ε and is therefore
// approximate; it is also the slowest algorithm in the study because every
// probe costs a full O(nm) Bellman–Ford.
//
// This implementation searches on the integer grid λ = x/K with
// K = n² + 1, entirely in exact arithmetic. Because λ* is a rational with
// denominator at most n and two distinct such rationals differ by more than
// 1/K, once the interval narrows to one grid cell the best negative cycle
// recorded along the way has mean exactly λ* — this is the "improved
// Lawler" the paper mentions as future work. Setting Options.Epsilon > 0
// instead reproduces the paper's approximate variant (grid K = ⌈1/ε⌉; the
// result is exact anyway whenever 1/K < 1/n², and an ε too fine for the
// exact int64 arithmetic keeps K = n² + 1).
type lawlerAlg struct{}

func (lawlerAlg) Name() string { return "lawler" }

func (lawlerAlg) Solve(g *graph.Graph, opt Options) (Result, error) {
	if err := checkSolveInput(g); err != nil {
		return Result{}, err
	}
	n := int64(g.NumNodes())
	var counts counter.Counts

	// Grid resolution. A grid finer than n² + 1 is already exact, so a
	// ⌈1/ε⌉ that int64 cannot hold, or that the scaled arithmetic cannot
	// carry, keeps the exact grid instead of failing.
	K := n*n + 1
	if opt.Epsilon > 0 {
		if f := math.Ceil(1 / opt.Epsilon); f < 1<<63 {
			if k := max(int64(f), 2); k <= K || !scaledOverflows(g, 0, k, 1) {
				K = k
			}
		}
	}
	if scaledOverflows(g, 0, K, 1) {
		return Result{}, ErrWeightRange
	}
	exact := K > n*n

	minW, maxW := g.WeightRange()
	lo := K * minW    // λ = lo/K is feasible: λ* >= w_min
	hi := K*maxW + 1  // λ = hi/K is infeasible: λ* <= w_max < hi/K
	if minW == maxW { // uniform weights: every cycle mean equals w
		lambda := numeric.FromInt(minW)
		return finishExact(g, lambda, nil, counts)
	}

	// Caller-supplied λ* bounds (e.g. from kernelization) shrink the initial
	// bracket. lo/K must stay feasible: ⌊K·L⌋/K ≤ L ≤ λ*. hi/K must stay
	// strictly infeasible AND the last probeable grid point (hi−1)/K must
	// exceed λ* strictly so a negative cycle is always recorded:
	// (⌊K·U⌋+1)/K > U ≥ λ* in all cases, hence the +2.
	if opt.LambdaLower != nil {
		if v, ok := scaleFloor(K, opt.LambdaLower.Num(), opt.LambdaLower.Den()); ok && v > lo {
			lo = v
		}
	}
	if opt.LambdaUpper != nil {
		if v, ok := scaleFloor(K, opt.LambdaUpper.Num(), opt.LambdaUpper.Den()); ok && v+2 < hi {
			hi = v + 2
		}
	}

	var bestCycle []graph.ArcID
	weights := make([]int64, g.NumArcs())
	probe := func(p int64) ([]graph.ArcID, bool) {
		for i, a := range g.Arcs() {
			weights[i] = K*a.Weight - p
		}
		return ncd.Detect(g, weights, opt.NCD, &counts)
	}
	for hi-lo > 1 {
		if err := opt.checkpoint(); err != nil {
			return Result{}, err
		}
		counts.Iterations++
		mid := lo + (hi-lo)/2
		cyc, neg := probe(mid)
		if !neg {
			lo = mid
			continue
		}
		hi = mid
		// Record the best negative cycle seen; when the interval closes to
		// one grid cell its exact mean is λ* (both are rationals with
		// denominator <= n inside a window narrower than 1/n²).
		mean := numeric.NewRat(g.CycleWeight(cyc), int64(len(cyc)))
		if bestCycle == nil || mean.Less(numeric.NewRat(g.CycleWeight(bestCycle), int64(len(bestCycle)))) {
			bestCycle = append(bestCycle[:0], cyc...)
		}
	}

	if bestCycle == nil {
		// Unreachable: with minW < maxW (the uniform case returned above)
		// every arc lies on some cycle of a strongly connected graph, so
		// λ* < w_max strictly and at least one probe above λ* must have
		// produced a negative cycle before the window closed.
		return Result{}, ErrIterationLimit
	}
	mean := numeric.NewRat(g.CycleWeight(bestCycle), int64(len(bestCycle)))
	return Result{Mean: mean, Cycle: bestCycle, Exact: exact, Counts: counts}, nil
}

// scaleFloor returns ⌊K·p/q⌋ for q > 0, reporting ok=false when K·p would
// overflow int64 (the caller then skips the optional bound clamp).
func scaleFloor(K, p, q int64) (int64, bool) {
	ap := p
	if ap < 0 {
		ap = -ap
	}
	if ap != 0 && K > math.MaxInt64/ap {
		return 0, false
	}
	kp := K * p
	v := kp / q
	if kp%q != 0 && kp < 0 {
		v--
	}
	return v, true
}
