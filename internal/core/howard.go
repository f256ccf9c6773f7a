package core

import (
	"fmt"
	"math"

	"repro/internal/counter"
	"repro/internal/graph"
	"repro/internal/numeric"
)

func init() {
	register("howard", func() Algorithm { return howardAlg{} })
}

// howardAlg is Howard's policy-iteration algorithm [Cochet-Terrasson et al.
// 1997] — the paper's headline finding is that this algorithm, known from
// the stochastic control community, is by far the fastest MCM algorithm in
// practice even though its only proven bounds (including the paper's two
// new ones, O(nmα) and O(n²m(w_max−w_min)/ε)) are not polynomial.
//
// howardRun, the repository's one Howard, solves the original cost-to-time
// ratio form, min Σw(C)/Σt(C) over cycles C; a mean solve is the same
// iteration with every transit read as 1 (paper §1).
//
// The paper's Figure 1 presents a simplified value-determination step that
// recomputes distances only toward the single smallest policy cycle. That
// simplification can let λ oscillate between the cycles of successive
// policies on multichain policy graphs (our differential fuzzer found such
// inputs for the ratio variant); this implementation therefore performs the
// original multichain value determination. Each iteration:
//
//  1. One walk of the out-degree-one policy graph finds its cycles and
//     evaluates the policy on the way: every node reaches exactly one
//     policy cycle, whose exact rational value becomes the node's *gain*,
//     and the node's *bias* d (float64) follows from its policy successor's,
//     d(v) = d(pol v) + w − gain·t — Figure 1's lines 7–12 applied per basin.
//  2. Policy improvement is lexicographic: an arc into a basin with a
//     strictly smaller gain always wins (gains are exact rationals, so the
//     gain vector is non-increasing and cannot oscillate); at equal gain, a
//     strictly smaller bias wins, flagged as progress only above ε
//     (Figure 1's lines 13–18). The sweep reads a flat copy of the out-arcs.
//
// On convergence the smallest gain λ = p/q comes from an actual cycle, so it
// is an exact rational, and the converged policy proves it: the integer
// potentials π(v) = q·w(v→pol v) − p·t(v→pol v) + π(pol v) of its tree,
// checked on every arc in one O(m) pass, show that no cycle has a smaller
// value. Float round-off in the bias can leave a policy whose potentials
// miss an arc; then an exact Bellman–Ford decides, and a failure there
// halves ε and resumes. Every returned λ* is exact.
type howardAlg struct{}

func (howardAlg) Name() string { return "howard" }

func (howardAlg) Solve(g *graph.Graph, opt Options) (Result, error) {
	r, _, err := howardRun(g, opt, true, nil, false)
	return r, err
}

// HowardRatio is Howard's policy iteration on the cost-to-time ratio
// problem: it returns ρ* = min Σw(C)/Σt(C) over the cycles C of a strongly
// connected graph in Result.Mean, exact, with a cycle attaining it. The
// caller validates the transits: none negative and no cycle of zero total
// transit (internal/ratio's checkInput). Weights need not fit the mean
// solvers' ±(2^31−1): a fixed point beyond the exact int64 arithmetic is
// reported as ErrNumericRange. Options.Epsilon, MaxIterations and the
// cancellation token apply as for howard; the Result carries no potentials.
func HowardRatio(g *graph.Graph, opt Options) (Result, error) {
	opt.Certify = false
	r, _, err := howardRun(g, opt, false, nil, false)
	return r, err
}

// validWarmPolicy reports whether warm is a structurally valid policy for g:
// one out-arc per node. Policy iteration converges to the exact optimum from
// ANY such policy (the exact certificate gates every return), so a stale warm
// start can cost iterations but can never change the answer.
func validWarmPolicy(g *graph.Graph, warm []graph.ArcID) bool {
	if len(warm) != g.NumNodes() {
		return false
	}
	m := graph.ArcID(g.NumArcs())
	for v, id := range warm {
		if id < 0 || id >= m || g.Arc(id).From != graph.NodeID(v) {
			return false
		}
	}
	return true
}

// howardEpsilon is the default bias-comparison threshold,
// 1e-10·max|w|·maxT with both factors at least 1. Each bias term is
// w(e) − λ·t(e), and with transits ≥ 1 on cycles |λ| is bounded by the
// weight scale, so the terms reach max|w|·(1 + maxT). A threshold from the
// weights alone is drowned by float round-off once transits dwarf weights
// (noise ≈ n·2⁻⁵²·max|w|·maxT exceeds 1e-10·max|w| for large maxT), and
// policy iteration then churns on noise until the iteration limit. A mean
// solve (maxT = 1) gets 1e-10·max|w|.
func howardEpsilon(g *graph.Graph, maxT int64) float64 {
	minW, maxW := g.WeightRange()
	scaleW := math.Max(1, math.Max(math.Abs(float64(minW)), math.Abs(float64(maxW))))
	return 1e-10 * scaleW * math.Max(1, float64(maxT))
}

// howardRun is the full Howard iteration behind howardAlg.Solve,
// HowardRatio, Session's and DynSession's warm-started solves, and the
// kernelized driver's contracted kernels. unit selects the transit view for
// the whole solve: true reads every transit as 1 (a mean solve, whose input
// contract checkSolveInput enforces), false reads each arc's Transit field
// (a ratio solve, validated by the caller). A non-nil warm policy (one
// out-arc per node) replaces the cheapest-arc initial policy when
// structurally valid for g, and is silently ignored otherwise. When
// wantPolicy is set the converged optimal policy is returned in a freshly
// allocated slice (the internal one is pooled), for callers that cache
// policies across solves.
func howardRun(g *graph.Graph, opt Options, unit bool, warm []graph.ArcID, wantPolicy bool) (Result, []graph.ArcID, error) {
	if unit {
		if err := checkSolveInput(g); err != nil {
			return Result{}, nil, err
		}
	} else if g.NumNodes() == 0 || g.NumArcs() == 0 {
		return Result{}, nil, ErrAcyclic
	}
	maxT := maxTransit(g, unit)
	n := g.NumNodes()
	var counts counter.Counts

	eps := opt.Epsilon
	if eps <= 0 {
		eps = howardEpsilon(g, maxT)
	}

	ws := getHowardWS(g, unit)
	defer ws.release()

	// Initial policy: a valid warm start wins, else cheapest out-arc
	// (Figure 1 lines 1–4).
	policy := ws.policy
	if warm != nil && validWarmPolicy(g, warm) {
		copy(policy, warm)
	} else {
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
				return Result{}, nil, ErrNotStronglyConnected
			}
		}
	}
	arcs := g.Arcs()
	polTo, polW, polT := ws.polTo, ws.polW, ws.polT
	for v, id := range policy {
		a := arcs[id]
		polTo[v], polW[v], polT[v] = a.To, float64(a.Weight), float64(transit(a, unit))
	}

	node := ws.node // biases zeroed by getHowardWS
	out, outStart := ws.out, ws.outStart
	cycleGains := ws.cycleGains[:0]
	bestCycBuf := ws.bestCyc[:0]
	defer func() { ws.cycleGains, ws.bestCyc = cycleGains, bestCycBuf }()
	var (
		bestGain numeric.Rat
		haveBest bool
	)
	// Value determination happens inside the walk. A closed cycle fixes its
	// gain; its normalization node, the smallest node on it (stable across
	// policy changes), keeps its previous bias — the continuity condition
	// that makes the value sequence monotone and prevents bias oscillation
	// between equal-gain basins — and the other cycle nodes follow
	// backwards from it. Every walk's tail then takes its successor's gain
	// and bias, last node first.
	evalCycle := func(cycle []graph.ArcID) {
		counts.CyclesExamined++
		den := int64(len(cycle))
		if !unit {
			den = g.CycleTransit(cycle)
		}
		r := numeric.NewRat(g.CycleWeight(cycle), den)
		if !haveBest || r.Less(bestGain) {
			bestGain = r
			bestCycBuf = append(bestCycBuf[:0], cycle...)
			haveBest = true
		}
		rf := r.Float64()
		seq := int32(len(cycleGains))
		cycleGains = append(cycleGains, r)
		j := 0
		for i, id := range cycle {
			if arcs[id].From < arcs[cycle[j]].From {
				j = i
			}
		}
		s := &node[arcs[cycle[j]].From]
		s.gain, s.seq = rf, seq
		for k := 1; k < len(cycle); k++ {
			i := j - k
			if i < 0 {
				i += len(cycle)
			}
			a := arcs[cycle[i]]
			nv := &node[a.From]
			nv.d = node[a.To].d + float64(a.Weight) - rf*polT[a.From]
			nv.gain, nv.seq = rf, seq
		}
	}
	evalTail := func(walk []graph.NodeID) {
		for i := len(walk) - 1; i >= 0; i-- {
			v := walk[i]
			next := node[polTo[v]]
			nv := &node[v]
			nv.d = next.d + polW[v] - next.gain*polT[v]
			nv.gain, nv.seq = next.gain, next.seq
		}
	}

	maxIter := opt.maxIter(100*n + 1000)
	for iter := 0; iter < maxIter; iter++ {
		if err := opt.checkpoint(); err != nil {
			return Result{}, nil, err
		}
		counts.Iterations++

		cycleGains = cycleGains[:0]
		haveBest = false
		ws.pc.Walk(g, policy, evalCycle, evalTail)
		if !haveBest {
			return Result{}, nil, ErrIterationLimit // impossible: out-degree 1 everywhere
		}
		ws.rankIdx = grow(ws.rankIdx, len(cycleGains))
		ws.ranks = grow(ws.ranks, len(cycleGains))
		numeric.RanksInto(cycleGains, ws.rankIdx, ws.ranks)
		ranks := ws.ranks
		for v := range node {
			node[v].rank = ranks[node[v].seq]
		}

		// Lexicographic policy improvement.
		improved := false
		for u := 0; u < n; u++ {
			cur := node[polTo[u]]
			curVal := cur.d + polW[u] - cur.gain*polT[u]
			best, bestRank, bestVal := -1, cur.rank, curVal
			row := out[outStart[u]:outStart[u+1]]
			counts.Relaxations += len(row)
			for k := range row {
				a := &row[k]
				t := &node[a.to]
				switch {
				case t.rank < bestRank:
					bestRank = t.rank
					bestVal = t.d + a.w - t.gain*a.t
					best = k
				case t.rank == bestRank:
					if val := t.d + a.w - t.gain*a.t; val < bestVal {
						bestVal = val
						best = k
					}
				}
			}
			if best < 0 {
				continue
			}
			if bestRank < cur.rank {
				improved = true
			} else if bestVal < curVal {
				if curVal-bestVal > eps {
					improved = true
				}
			} else {
				continue
			}
			a := row[best]
			policy[u], polTo[u], polW[u], polT[u] = a.id, a.to, a.w, a.t
		}
		if improved {
			continue
		}

		// Hardened Figure 1 line 19: prove λ exactly before returning, from
		// the converged policy's own potentials when they are feasible, else
		// with Bellman–Ford; resume with a tighter threshold on
		// (float-induced) failure.
		p, q := bestGain.Num(), bestGain.Den()
		if scaledOverflows(g, p, q, maxT) {
			return Result{}, nil, fmt.Errorf("%w: howard's fixed point λ = %v", ErrNumericRange, bestGain)
		}
		var potentials []int64
		if policyPotentials(g, policy, p, q, unit, ws.pi, &ws.pc) && feasiblePotentials(g, p, q, unit, ws.pi, &counts) {
			if opt.Certify {
				potentials = append([]int64(nil), ws.pi...)
			}
		} else if neg, _ := hasNegativeCycleScaledInto(g, p, q, unit, &counts, ws.bfDist, ws.bfParent); !neg {
			if opt.Certify {
				potentials = potentialsFromDist(ws.bfDist)
			}
		} else {
			eps /= 2
			continue
		}
		cycle := make([]graph.ArcID, len(bestCycBuf))
		copy(cycle, bestCycBuf)
		var outPolicy []graph.ArcID
		if wantPolicy {
			outPolicy = make([]graph.ArcID, n)
			copy(outPolicy, policy)
		}
		return Result{Mean: bestGain, Cycle: cycle, Exact: true, Counts: counts, potentials: potentials}, outPolicy, nil
	}
	return Result{}, nil, ErrIterationLimit
}

// policyPotentials fills pi with the exact potentials of the policy graph
// at λ = p/q: zero at the node where the walk entered each policy cycle,
// and π(v) = q·w(v→pol v) − p·t(v→pol v) + π(pol v) everywhere else, with t
// read through transit. It reports false when some policy cycle's reduced
// weight is not exactly zero, i.e. its value is not λ; at a fixed point of a
// strongly connected graph every policy cycle's value is λ. Every potential
// is a sum of at most n−1 reduced weights, so scaledPerArc's bound covers
// it.
func policyPotentials(g *graph.Graph, policy []graph.ArcID, p, q int64, unit bool, pi []int64, pc *graph.PolicyCycles) bool {
	arcs := g.Arcs()
	tight := true
	pc.Walk(g, policy, func(cycle []graph.ArcID) {
		first := arcs[cycle[0]]
		pi[first.From] = 0
		for i := len(cycle) - 1; i > 0; i-- {
			a := arcs[cycle[i]]
			pi[a.From] = q*a.Weight - p*transit(a, unit) + pi[a.To]
		}
		if q*first.Weight-p*transit(first, unit)+pi[first.To] != 0 {
			tight = false
		}
	}, func(walk []graph.NodeID) {
		for i := len(walk) - 1; i >= 0; i-- {
			a := arcs[policy[walk[i]]]
			pi[a.From] = q*a.Weight - p*transit(a, unit) + pi[a.To]
		}
	})
	return tight
}
