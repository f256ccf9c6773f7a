package core

import (
	"repro/internal/counter"
	"repro/internal/graph"
	"repro/internal/numeric"
)

func init() {
	register("dg2", func() Algorithm { return dg2Alg{} })
	register("ho2", func() Algorithm { return ho2Alg{} })
}

// dg2Alg is the Θ(n)-space version of the DG algorithm. The paper's §4.4
// observes that Karp2's two-pass technique "is also applicable to the DG
// and HO algorithms"; this realizes it for DG: pass one runs the
// breadth-first unfolding keeping only two rows and records D_n, pass two
// re-runs it folding Karp's maximization row by row. Like Karp2 versus
// Karp, it trades a second pass for Θ(n²) → Θ(n) space.
type dg2Alg struct{}

func (dg2Alg) Name() string { return "dg2" }

func (dg2Alg) Solve(g *graph.Graph, opt Options) (Result, error) {
	if err := checkSolveInput(g); err != nil {
		return Result{}, err
	}
	n := g.NumNodes()
	var counts counter.Counts

	prev := make([]int64, n)
	cur := make([]int64, n)
	reached := make([]graph.NodeID, 0, n)
	next := make([]graph.NodeID, 0, n)
	inNext := make([]bool, n)

	reset := func() {
		for i := range prev {
			prev[i] = infD
		}
		prev[0] = 0
		reached = append(reached[:0], 0)
	}
	step := func() {
		for i := range cur {
			cur[i] = infD
		}
		next = next[:0]
		for _, u := range reached {
			du := prev[u]
			for _, id := range g.OutArcs(u) {
				counts.ArcsVisited++
				counts.Relaxations++
				a := g.Arc(id)
				if nd := du + a.Weight; nd < cur[a.To] {
					cur[a.To] = nd
					if !inNext[a.To] {
						inNext[a.To] = true
						next = append(next, a.To)
					}
				}
			}
		}
		for _, v := range next {
			inNext[v] = false
		}
		prev, cur = cur, prev
		reached, next = next, reached
	}

	// Pass 1: D_n.
	reset()
	for k := 1; k <= n; k++ {
		if err := opt.checkpoint(); err != nil {
			return Result{}, err
		}
		step()
	}
	dn := make([]int64, n)
	copy(dn, prev)

	// Pass 2: fold the maximization.
	maxNum := make([]int64, n)
	maxDen := make([]int64, n)
	haveMax := make([]bool, n)
	fold := func(k int) {
		for v := 0; v < n; v++ {
			if dn[v] >= infD || prev[v] >= infD {
				continue
			}
			num, den := dn[v]-prev[v], int64(n-k)
			if !haveMax[v] || numeric.CmpFrac(num, den, maxNum[v], maxDen[v]) > 0 {
				maxNum[v], maxDen[v] = num, den
				haveMax[v] = true
			}
		}
	}
	reset()
	fold(0)
	for k := 1; k < n; k++ {
		if err := opt.checkpoint(); err != nil {
			return Result{}, err
		}
		step()
		fold(k)
	}
	counts.Iterations = 2 * n

	var (
		bestNum, bestDen int64
		haveBest         bool
	)
	for v := 0; v < n; v++ {
		if !haveMax[v] {
			continue
		}
		if !haveBest || numeric.CmpFrac(maxNum[v], maxDen[v], bestNum, bestDen) < 0 {
			bestNum, bestDen = maxNum[v], maxDen[v]
			haveBest = true
		}
	}
	if !haveBest {
		return Result{}, ErrAcyclic
	}
	return finishExact(g, numeric.NewRat(bestNum, bestDen), nil, counts)
}

// ho2Alg is the Θ(n)-space version of the HO algorithm (the paper
// extrapolates: "the space efficient version of the HO algorithm will
// double its running time, which still maintains its superiority to most
// of the other algorithms"). It keeps HO's structure — candidate cycles
// from the level parent graph, certified by the Equation 1 potentials —
// but stores only rolling D rows. Potentials are maintained incrementally
// while the best candidate is unchanged; when a better candidate appears,
// they are rebuilt by re-running the recurrence from level 0 (the Karp2
// trick), which is what doubles the constant. If no certificate succeeds
// by level n the algorithm falls back to a Karp2-style two-pass evaluation
// of Karp's theorem, so the result is always exact.
type ho2Alg struct{}

func (ho2Alg) Name() string { return "ho2" }

func (ho2Alg) Solve(g *graph.Graph, opt Options) (Result, error) {
	if err := checkSolveInput(g); err != nil {
		return Result{}, err
	}
	n := g.NumNodes()
	var counts counter.Counts

	prev := make([]int64, n)
	cur := make([]int64, n)
	parent := make([]graph.ArcID, n)
	var scan graph.ParentCycles

	reset := func() {
		for i := range prev {
			prev[i] = infD
		}
		prev[0] = 0
	}
	// step advances one level, recording parents; counts arcs.
	step := func() {
		for i := range cur {
			cur[i] = infD
		}
		for i := range parent {
			parent[i] = -1
		}
		for id, a := range g.Arcs() {
			counts.ArcsVisited++
			counts.Relaxations++
			if prev[a.From] >= infD {
				continue
			}
			if nd := prev[a.From] + a.Weight; nd < cur[a.To] {
				cur[a.To] = nd
				parent[a.To] = graph.ArcID(id)
			}
		}
		prev, cur = cur, prev
	}

	var (
		best      numeric.Rat
		bestCycle []graph.ArcID
		haveBest  bool
	)
	pot := make([]int64, n)
	potInfinite := n

	// rebuildPotentials re-runs the recurrence from level 0 through level k
	// in O(nk) time and O(n) space for the candidate p/q.
	rebuildPotentials := func(k int, p, q int64) {
		rp := make([]int64, n)
		rc := make([]int64, n)
		for i := range rp {
			rp[i] = infD
		}
		rp[0] = 0
		potInfinite = n
		for v := range pot {
			pot[v] = infD
		}
		if 0 < n {
			pot[0] = 0
			potInfinite--
		}
		for j := 1; j <= k; j++ {
			for i := range rc {
				rc[i] = infD
			}
			for _, a := range g.Arcs() {
				if rp[a.From] >= infD {
					continue
				}
				if nd := rp[a.From] + a.Weight; nd < rc[a.To] {
					rc[a.To] = nd
				}
			}
			rp, rc = rc, rp
			for v := 0; v < n; v++ {
				if rp[v] >= infD {
					continue
				}
				if val := q*rp[v] - int64(j)*p; val < pot[v] {
					if pot[v] >= infD {
						potInfinite--
					}
					pot[v] = val
				}
			}
		}
	}

	reset()
	for k := 1; k <= n; k++ {
		if err := opt.checkpoint(); err != nil {
			return Result{}, err
		}
		step()

		improved := false
		scan.Scan(g, parent, func(cycle []graph.ArcID) bool {
			counts.CyclesExamined++
			mean := numeric.NewRat(g.CycleWeight(cycle), int64(len(cycle)))
			if !haveBest || mean.Less(best) {
				best = mean
				bestCycle = append(bestCycle[:0], cycle...)
				haveBest = true
				improved = true
			}
			return true
		})
		if !haveBest {
			continue
		}
		p, q := best.Num(), best.Den()
		if improved {
			rebuildPotentials(k, p, q)
		} else {
			for v := 0; v < n; v++ {
				if dv := prev[v]; dv < infD {
					if val := q*dv - int64(k)*p; val < pot[v] {
						if pot[v] >= infD {
							potInfinite--
						}
						pot[v] = val
					}
				}
			}
		}
		if potInfinite == 0 {
			counts.NegativeCycleChecks++
			feasible := true
			for _, a := range g.Arcs() {
				if pot[a.To] > pot[a.From]+q*a.Weight-p {
					feasible = false
					break
				}
			}
			if feasible {
				counts.Iterations = k
				return Result{Mean: best, Cycle: bestCycle, Exact: true, Counts: counts}, nil
			}
		}
	}
	counts.Iterations = n

	// Karp2-style fallback: prev currently holds D_n.
	dn := make([]int64, n)
	copy(dn, prev)
	maxNum := make([]int64, n)
	maxDen := make([]int64, n)
	haveMax := make([]bool, n)
	fold := func(k int) {
		for v := 0; v < n; v++ {
			if dn[v] >= infD || prev[v] >= infD {
				continue
			}
			num, den := dn[v]-prev[v], int64(n-k)
			if !haveMax[v] || numeric.CmpFrac(num, den, maxNum[v], maxDen[v]) > 0 {
				maxNum[v], maxDen[v] = num, den
				haveMax[v] = true
			}
		}
	}
	reset()
	fold(0)
	for k := 1; k < n; k++ {
		if err := opt.checkpoint(); err != nil {
			return Result{}, err
		}
		step()
		fold(k)
	}
	var (
		bestNum, bestDen int64
		haveAny          bool
	)
	for v := 0; v < n; v++ {
		if !haveMax[v] {
			continue
		}
		if !haveAny || numeric.CmpFrac(maxNum[v], maxDen[v], bestNum, bestDen) < 0 {
			bestNum, bestDen = maxNum[v], maxDen[v]
			haveAny = true
		}
	}
	if !haveAny {
		return Result{}, ErrAcyclic
	}
	return finishExact(g, numeric.NewRat(bestNum, bestDen), nil, counts)
}
