package ratio

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/counter"
	"repro/internal/graph"
	"repro/internal/numeric"
)

func init() {
	register("bhk", func() Algorithm { return bhkAlg{} })
}

// bhkAlg is the binary-search scheme of Bringmann–Hansen–Krinninger
// [arXiv:1704.08122] for the minimum cost-to-time ratio, the post-1999
// engine from ROADMAP item 2. Like Lawler's bisection it halves a bracket
// around ρ* with parametric feasibility probes, but it terminates by their
// tighter probe bound: ρ* is the ratio w(C)/t(C) of a simple cycle, so its
// denominator is at most D = n·maxT, and once the bracket is narrower than
// 1/D² it contains exactly one such rational — recovered directly with a
// Stern–Brocot walk (numeric.SnapToDenominator) and certified by one oracle
// probe whose tight arcs must close a cycle of exactly that ratio. The probe
// count is therefore O(log(n·max|w|·maxT)) with no iterative endgame on the
// happy path.
//
// The bracket lives on an integer grid num/S with S a power of two sized to
// pass 1/D² while keeping every probe inside the oracle's exact-int64
// overflow pre-check; when the two goals conflict (astronomical n·W·T), the
// bisection still narrows the bracket as far as the grid allows and a
// Dinkelbach-style descent through actual cycle ratios — seeded with the
// best negative-probe cycle the search saw — finishes exactly. Every answer
// path ends in an exact integer witness; no float ever reaches the result.
type bhkAlg struct{}

func (bhkAlg) Name() string { return "bhk" }

func (bhkAlg) Solve(g *graph.Graph, opt core.Options) (Result, error) {
	if err := checkInput(g); err != nil {
		return Result{}, err
	}
	var counts counter.Counts
	n := int64(g.NumNodes())

	minW, maxW := g.WeightRange()
	absW := maxW
	if -minW > absW {
		absW = -minW
	}
	if absW < 1 {
		absW = 1
	}
	maxT := maxTransit(g)
	bound, ok := numeric.CheckedMul(n, absW) // |ρ*| ≤ n·max|w| / 1
	if !ok {
		return Result{}, fmt.Errorf("%w: cycle-ratio bound n·max|w| overflows", ErrNumericRange)
	}

	// Grid scale S: a power of two with (a) every probe num/S in the bracket
	// |num| ≤ (bound+1)·S exact under the oracle's int64 pre-check, and
	// (b) ideally 1/S < 1/D², D = n·maxT, the BHK uniqueness width.
	unit, ok := numeric.CheckedMul(bound+1, maxT)
	if !ok {
		return Result{}, fmt.Errorf("%w: probe magnitude bound overflows", ErrNumericRange)
	}
	unit += absW
	if unit < absW {
		return Result{}, fmt.Errorf("%w: probe magnitude bound overflows", ErrNumericRange)
	}
	maxS := (int64(1) << 62) / (n + 1) / unit
	if maxS < 1 {
		return Result{}, fmt.Errorf("%w: even unit-denominator probes overflow", ErrNumericRange)
	}
	denBound, ok := numeric.CheckedMul(n, maxT)
	if !ok {
		denBound = int64(1) << 31 // saturate; snap skipped if S can't reach it anyway
	}
	target := int64(1) << 62
	if sq, ok := numeric.CheckedMul(denBound, denBound); ok {
		target = sq + 1
	}
	scale := int64(1)
	for scale < target && scale <= maxS/2 {
		scale *= 2
	}
	snapOK := scale >= target

	oracle := newOracle(g, opt, &counts)
	defer oracle.Close()

	maxIter := opt.MaxIterations
	if maxIter <= 0 {
		// ≤ log2(2·(bound+1)·scale) < 126 bisection probes, plus the endgame's
		// strictly decreasing cycle ratios; 2^12 is a generous safety valve.
		maxIter = 1 << 12
	}

	// Fallback seed: the best cycle of the first-out-arc policy, improved by
	// every negative probe below. The endgame needs an actual cycle to
	// descend from even if every bisection probe converges.
	var (
		best      numeric.Rat
		bestCycle []graph.ArcID
		haveBest  bool
	)
	note := func(cycle []graph.ArcID) {
		counts.CyclesExamined++
		if r, ok := cycleRatio(g, cycle); ok && (!haveBest || r.Less(best)) {
			best = r
			bestCycle = append(bestCycle[:0], cycle...)
			haveBest = true
		}
	}
	oracle.firstArcCycles(note)
	if !haveBest {
		return Result{}, ErrAcyclic
	}

	probe := func(num, den int64) (bool, []graph.ArcID, error) {
		if opt.Canceled() {
			return false, nil, core.ErrCanceled
		}
		if maxIter <= 0 {
			return false, nil, ErrIterationLimit
		}
		maxIter--
		counts.Iterations++
		return oracle.Probe(num, den)
	}

	// Invariant: lo/scale ≤ ρ* < hi/scale (lo side by |ρ*| ≤ bound or a
	// converged probe, hi side by bound or a negative probe).
	lo, hi := -bound*scale, (bound+1)*scale
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		neg, cyc, err := probe(mid, scale)
		if err != nil {
			return Result{}, err
		}
		if neg {
			note(cyc)
			hi = mid
		} else {
			if tc, ok := oracle.TightCycle(mid, scale); ok {
				// ρ* sits exactly on the grid; the tight cycle certifies it.
				counts.CyclesExamined++
				return Result{Ratio: numeric.NewRat(mid, scale), Cycle: tc, Exact: true, Counts: counts}, nil
			}
			lo = mid
		}
	}

	// ρ* ∈ [lo/scale, hi/scale). Test the left endpoint exactly, then snap to
	// the unique denominator-≤ D rational of the open interval.
	neg, cyc, err := probe(lo, scale)
	if err != nil {
		return Result{}, err
	}
	if neg {
		note(cyc) // bracket invariant violated only by float-free logic bugs; descend
	} else if tc, ok := oracle.TightCycle(lo, scale); ok {
		counts.CyclesExamined++
		return Result{Ratio: numeric.NewRat(lo, scale), Cycle: tc, Exact: true, Counts: counts}, nil
	}
	if snapOK && !neg {
		if snap, ok := numeric.SnapToDenominator(float64(lo)/float64(scale), float64(hi)/float64(scale), denBound); ok {
			// The snap crossed a float boundary, so it is advisory until an
			// exact probe confirms: converged and tight ⇔ ρ* = snap.
			neg, cyc, err := probe(snap.Num(), snap.Den())
			if err != nil {
				return Result{}, err
			}
			if neg {
				note(cyc)
			} else if tc, ok := oracle.TightCycle(snap.Num(), snap.Den()); ok {
				counts.CyclesExamined++
				return Result{Ratio: snap, Cycle: tc, Exact: true, Counts: counts}, nil
			}
		}
	}

	// Exact endgame for the overflow-capped (or float-degenerate) cases:
	// Dinkelbach descent through strictly decreasing actual cycle ratios.
	for {
		neg, cyc, err := probe(best.Num(), best.Den())
		if err != nil {
			return Result{}, err
		}
		if !neg {
			cycle := make([]graph.ArcID, len(bestCycle))
			copy(cycle, bestCycle)
			return Result{Ratio: best, Cycle: cycle, Exact: true, Counts: counts}, nil
		}
		counts.CyclesExamined++
		r, ok := cycleRatio(g, cyc)
		if !ok || !r.Less(best) {
			return Result{}, ErrIterationLimit
		}
		best, bestCycle = r, append(bestCycle[:0], cyc...)
	}
}
