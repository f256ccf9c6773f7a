package core

import (
	"fmt"

	"repro/internal/counter"
	"repro/internal/graph"
	"repro/internal/numeric"
)

func init() {
	register("madani", func() Algorithm { return madaniAlg{} })
}

// madaniAlg is value iteration with loop contraction and index resetting for
// deterministic MDPs [Madani, arXiv:1301.0583] — the post-1999 Howard
// competitor from ROADMAP item 2. Plain value iteration for the average
// reward criterion need not converge on deterministic chains (values
// oscillate with the period of the optimal cycle); Madani's observation is
// that the greedy update structure itself exposes the offending loops, and
// contracting them — adopting the loop's exact mean as the new candidate and
// resetting the value indices — yields a polynomial algorithm.
//
// This implementation runs the scheme in exact integer arithmetic on the
// reduced costs q·w − p for the current candidate λ = p/q (always an actual
// cycle's mean, so an exact rational with denominator ≤ n):
//
//  1. The candidate starts as the best cycle mean of the cheapest-out-arc
//     policy (the same seed Howard uses).
//  2. Each value-iteration pass performs one monotone Bellman–Ford sweep
//     d(v) ← min(d(v), d(u) + q·w(u→v) − p), recording the improving arc as
//     each node's parent.
//  3. After every pass the parent graph (≤ 1 in-arc per node) is scanned in
//     O(n) for cycles. A classical relaxation invariant says any cycle among
//     parent arcs has negative reduced weight, i.e. mean strictly below the
//     candidate: the loop is *contracted* — its exact mean becomes the new
//     candidate — and the indices are *reset* (d ← 0, parents cleared).
//  4. A pass with no change is an exact fixed point: d is an integer
//     feasibility certificate for G_λ (every arc satisfies d(u) + q·w − p ≥
//     d(v), so every cycle's mean is ≥ λ), and since λ is a real cycle's
//     mean, λ = λ* exactly.
//
// Each contraction strictly decreases the candidate through actual cycle
// means, and Bellman–Ford theory guarantees a parent cycle within n passes
// whenever one mean is still below the candidate, so the scheme terminates
// with no floating point anywhere on the answer path.
type madaniAlg struct{}

func (madaniAlg) Name() string { return "madani" }

func (madaniAlg) Solve(g *graph.Graph, opt Options) (Result, error) {
	if err := checkSolveInput(g); err != nil {
		return Result{}, err
	}
	n := g.NumNodes()
	var counts counter.Counts

	ws := getMadaniWS(n)
	defer ws.release()

	// Seed candidate: cheapest out-arc policy, best cycle mean among its
	// policy cycles (out-degree 1 everywhere guarantees at least one).
	policy := ws.policy
	for v := graph.NodeID(0); int(v) < n; v++ {
		policy[v] = -1
		best := int64(0)
		for _, id := range g.OutArcs(v) {
			if w := g.Arc(id).Weight; policy[v] < 0 || w < best {
				best = w
				policy[v] = id
			}
		}
		if policy[v] < 0 {
			return Result{}, ErrNotStronglyConnected
		}
	}
	var (
		cand     numeric.Rat
		haveCand bool
	)
	bestCyc := ws.bestCyc[:0]
	defer func() { ws.bestCyc = bestCyc }()
	ws.pc.policyCycles(g, policy, func(cycle []graph.ArcID) {
		counts.CyclesExamined++
		r := numeric.NewRat(g.CycleWeight(cycle), int64(len(cycle)))
		if !haveCand || r.Less(cand) {
			cand = r
			bestCyc = append(bestCyc[:0], cycle...)
			haveCand = true
		}
	}, nil)
	if !haveCand {
		return Result{}, ErrIterationLimit // impossible: out-degree 1 everywhere
	}

	p, q := cand.Num(), cand.Den()
	if scaledOverflows(g, p, q) {
		return Result{}, fmt.Errorf("%w: madani's candidate λ = %v", ErrNumericRange, cand)
	}

	// Index reset (step 3): zeroed values, cleared parents. Runs once per
	// contraction epoch; each epoch is one negative-cycle detection.
	d, parent := ws.d, ws.parent
	reset := func() {
		counts.NegativeCycleChecks++
		for i := range d {
			d[i] = 0
		}
		for i := range parent {
			parent[i] = -1
		}
	}
	reset()

	arcs := g.Arcs()
	maxIter := opt.maxIter(100*n + 1000)
	for iter := 0; iter < maxIter; iter++ {
		if err := opt.checkpoint(); err != nil {
			return Result{}, err
		}
		counts.Iterations++

		// One monotone value-iteration pass on the reduced costs.
		changed := false
		for id, a := range arcs {
			counts.Relaxations++
			if nd := d[a.From] + q*a.Weight - p; nd < d[a.To] {
				d[a.To] = nd
				parent[a.To] = graph.ArcID(id)
				changed = true
			}
		}
		if !changed {
			// Exact fixed point: d certifies feasibility of λ = cand, and
			// bestCyc achieves it. Under Certify, d goes to the certifier.
			cycle := make([]graph.ArcID, len(bestCyc))
			copy(cycle, bestCyc)
			res := Result{Mean: cand, Cycle: cycle, Exact: true, Counts: counts}
			if opt.Certify {
				res.potentials = potentialsFromDist(d)
			}
			return res, nil
		}

		// Loop contraction: scan the parent graph for cycles; every one found
		// has mean strictly below the candidate. Contract with the best.
		improved := false
		ws.scan.Scan(g, parent, func(cycle []graph.ArcID) bool {
			counts.CyclesExamined++
			// cand tracks the scan's running minimum, so the comparison keeps
			// only strict improvements (the invariant promises one, but the
			// guard makes a violation stall at ErrIterationLimit, not loop).
			if r := numeric.NewRat(g.CycleWeight(cycle), int64(len(cycle))); r.Less(cand) {
				cand = r
				bestCyc = append(bestCyc[:0], cycle...)
				improved = true
			}
			return true
		})
		if improved {
			p, q = cand.Num(), cand.Den()
			if scaledOverflows(g, p, q) {
				return Result{}, fmt.Errorf("%w: madani's candidate λ = %v", ErrNumericRange, cand)
			}
			reset()
		}
	}
	return Result{}, ErrIterationLimit
}
