package core

import (
	"repro/internal/counter"
	"repro/internal/graph"
	"repro/internal/numeric"
)

func init() {
	register("ho", func() Algorithm { return hoAlg{} })
}

// hoAlg is the Hartmann–Orlin early-termination variant of Karp's algorithm
// [Networks 1993]. It runs Karp's recurrence unchanged but, after each level
// k, inspects the cycles formed by the level-k shortest-walk parent pointers
// (a functional graph, so all its cycles are found in O(n)). Every such
// cycle is a real cycle of G and its mean is a candidate value λ̂ ≥ λ*.
// Whenever the best candidate improves, the algorithm attempts to certify it
// with the paper's Equation 1: the potentials
//
//	d(v) = min_{0≤j≤k} (D_j(v) − j·λ̂)
//
// are feasible (d(v) ≤ d(u) + w(u,v) − λ̂ on every arc) iff G_λ̂ has no
// negative cycle, i.e. iff λ̂ ≤ λ*; combined with λ̂ ≥ λ* the certificate
// proves λ̂ = λ* and the algorithm stops early. All certification arithmetic
// is exact (scaled by λ̂'s denominator). If no certificate succeeds by level
// n, Karp's theorem concludes as usual, so the result is always exact.
//
// The paper reports the terminating level k as the algorithm's "number of
// iterations" (§4.3); counts.Iterations records exactly that.
type hoAlg struct{}

func (hoAlg) Name() string { return "ho" }

func (hoAlg) Solve(g *graph.Graph, opt Options) (Result, error) {
	if err := checkSolveInput(g); err != nil {
		return Result{}, err
	}
	n := g.NumNodes()
	var counts counter.Counts

	D := make([]int64, (n+1)*n)
	row := func(k int) []int64 { return D[k*n : (k+1)*n] }
	r0 := row(0)
	for i := range r0 {
		r0[i] = infD
	}
	r0[0] = 0

	// parent[v] is the arc that produced the current level's D value of v,
	// or -1 when v is unreached at this level.
	parent := make([]graph.ArcID, n)
	var scan graph.ParentCycles

	var (
		best      numeric.Rat
		bestCycle []graph.ArcID
		haveBest  bool
	)
	// pot[v] = min_{0≤j≤k} (q·D_j(v) − j·p) for the current candidate
	// λ̂ = p/q, maintained incrementally level by level (O(n) per level)
	// and rebuilt from scratch (O(nk)) whenever the candidate improves.
	pot := make([]int64, n)
	potInfinite := n

	for k := 1; k <= n; k++ {
		if err := opt.checkpoint(); err != nil {
			return Result{}, err
		}
		prev, cur := row(k-1), row(k)
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

		// Collect candidate cycles from the parent functional graph.
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
			// New candidate: rebuild the potentials over levels 0..k.
			potInfinite = 0
			for v := 0; v < n; v++ {
				pot[v] = infD
				for j := 0; j <= k; j++ {
					if dj := D[j*n+v]; dj < infD {
						if val := q*dj - int64(j)*p; val < pot[v] {
							pot[v] = val
						}
					}
				}
				if pot[v] >= infD {
					potInfinite++
				}
			}
		} else {
			// Same candidate: fold in level k only.
			for v := 0; v < n; v++ {
				if dv := cur[v]; dv < infD {
					if val := q*dv - int64(k)*p; val < pot[v] {
						if pot[v] >= infD {
							potInfinite--
						}
						pot[v] = val
					}
				}
			}
		}

		// Equation 1 certificate: if the potentials are feasible for λ̂,
		// then λ̂ ≤ λ*; the candidate cycle proves λ̂ ≥ λ*, so λ* = λ̂.
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

	lambda, ok := karpTheorem(row(n), func(k int) []int64 { return row(k) }, n)
	if !ok {
		return Result{}, ErrAcyclic
	}
	return finishExact(g, lambda, nil, counts)
}
