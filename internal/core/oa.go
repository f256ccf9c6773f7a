package core

import (
	"fmt"
	"sort"

	"repro/internal/counter"
	"repro/internal/graph"
	"repro/internal/numeric"
	"repro/internal/pq"
)

func init() {
	register("oa1", func() Algorithm { return oaAlg{name: "oa1", oracle: (*assignInstance).solveAuction} })
	register("oa2", func() Algorithm { return oaAlg{name: "oa2", oracle: (*assignInstance).solveSSP} })
}

// oaAlg realizes the Orlin–Ahuja scaling algorithms [Math. Programming
// 1992] through their central reduction: G_λ contains a negative cycle iff
// the assignment problem over the bipartite graph with arc costs w(u,v) − λ
// and zero-cost diagonal "skip" arcs has a negative optimum (the optimal
// assignment is a minimum-weight cycle cover).
//
// The λ search mirrors their approximate binary search: λ is bisected over
// a fixed-denominator grid, each probe answered by solving the assignment
// instance; when the grid is exhausted the answer is known only to the grid
// resolution, and an exact endgame re-probes at the exact mean of the best
// negative cycle recorded (each such probe either certifies optimality or
// produces a strictly better cycle, so it terminates).
//
// OA1 solves each assignment probe with the ε-scaling *auction* algorithm
// (costs scaled by n+1 so the final ε < 1 phase is exact); OA2 uses the
// successive-shortest-path component of the hybrid (Dijkstra with
// potentials). As in the paper, the asymptotically attractive scaling
// machinery is not competitive in practice and degrades dramatically on the
// m = n Hamiltonian-cycle family (Table 2's 300-second OA1 outliers).
type oaAlg struct {
	name   string
	oracle func(inst *assignInstance, p, q int64, counts *counter.Counts) (int64, []int32)
}

func (a oaAlg) Name() string { return a.name }

// gridDenominator picks the power-of-two probe denominator: fine enough to
// localize λ* well, coarse enough that the auction's (n+1)-scaled prices
// provably fit in int64.
func gridDenominator(g *graph.Graph) int64 {
	minW, maxW := g.WeightRange()
	absW := maxW
	if -minW > absW {
		absW = -minW
	}
	if absW < 1 {
		absW = 1
	}
	n := int64(g.NumNodes())
	// Price bound ≈ 4·n·(n+1)·S·absW must stay below 2^61.
	limit := (int64(1) << 61) / (4 * n * (n + 1) * absW)
	s := int64(1 << 16)
	for s > limit && s > 2 {
		s >>= 1
	}
	return s
}

func (a oaAlg) Solve(g *graph.Graph, opt Options) (Result, error) {
	if err := checkSolveInput(g); err != nil {
		return Result{}, err
	}
	var counts counter.Counts
	inst := newAssignInstance(g)

	var (
		bestMean  numeric.Rat
		bestCycle []graph.ArcID
		haveBest  bool
	)
	record := func(cycle []graph.ArcID) {
		mean := numeric.NewRat(g.CycleWeight(cycle), int64(len(cycle)))
		if !haveBest || mean.Less(bestMean) {
			bestMean, bestCycle, haveBest = mean, cycle, true
		}
	}

	// Phase 1: binary search over the grid λ = x/S.
	S := gridDenominator(g)
	if opt.Epsilon > 0 {
		for S > 2 && 1/float64(S) < opt.Epsilon {
			S >>= 1
		}
	}
	minW, maxW := g.WeightRange()
	lo, hi := S*minW, S*maxW+1
	for hi-lo > 1 {
		counts.Iterations++
		counts.NegativeCycleChecks++
		mid := lo + (hi-lo)/2
		total, match := a.oracle(inst, mid, S, &counts)
		if total >= 0 {
			lo = mid
			continue
		}
		hi = mid
		cycle := inst.negativeCycle(match, mid, S)
		if cycle == nil {
			return Result{}, fmt.Errorf("core: %s: negative assignment without negative cycle", a.name)
		}
		counts.CyclesExamined++
		record(cycle)
	}
	if opt.Epsilon > 0 {
		// Approximate mode, as in the paper: report the best cycle found
		// (its mean is within the grid resolution of λ*).
		if !haveBest {
			return Result{Mean: numeric.NewRat(lo, S), Exact: false, Counts: counts}, nil
		}
		return Result{Mean: bestMean, Cycle: bestCycle, Exact: false, Counts: counts}, nil
	}

	// Phase 2: exact endgame by cycle refinement from the best cycle known
	// (or, if every probe was feasible, from an arbitrary policy cycle).
	if !haveBest {
		policy := make([]graph.ArcID, g.NumNodes())
		for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
			policy[v] = g.OutArcs(v)[0]
		}
		var pc graph.PolicyCycles
		pc.Walk(g, policy, func(cycle []graph.ArcID) {
			c := make([]graph.ArcID, len(cycle))
			copy(c, cycle)
			record(c)
		}, nil)
		if !haveBest {
			return Result{}, ErrAcyclic
		}
	}
	maxIter := opt.maxIter(g.NumNodes()*g.NumArcs() + 64)
	for iter := 0; iter < maxIter; iter++ {
		if err := opt.checkpoint(); err != nil {
			return Result{}, err
		}
		counts.Iterations++
		counts.NegativeCycleChecks++
		p, q := bestMean.Num(), bestMean.Den()
		total, match := a.oracle(inst, p, q, &counts)
		if total >= 0 {
			// No cycle with mean below bestMean, and bestCycle attains it.
			return Result{Mean: bestMean, Cycle: bestCycle, Exact: true, Counts: counts}, nil
		}
		cycle := inst.negativeCycle(match, p, q)
		if cycle == nil {
			return Result{}, fmt.Errorf("core: %s: negative assignment without negative cycle", a.name)
		}
		mean := numeric.NewRat(g.CycleWeight(cycle), int64(len(cycle)))
		if !mean.Less(bestMean) {
			return Result{}, fmt.Errorf("core: %s: cycle refinement did not decrease λ", a.name)
		}
		bestMean, bestCycle = mean, cycle
		counts.CyclesExamined++
	}
	return Result{}, ErrIterationLimit
}

// assignEdge is one bipartite edge: person (the graph node) to object
// (edge.obj, also a graph node). arcID < 0 marks the zero-cost diagonal
// skip edge.
type assignEdge struct {
	obj   int32
	arcID graph.ArcID
	w     int64
}

// assignInstance is the cycle-cover assignment instance of a graph: for
// each ordered node pair the cheapest parallel arc, plus one diagonal skip
// per node. Probe costs are q·w − p for arc edges and 0 for skips.
type assignInstance struct {
	g   *graph.Graph
	n   int
	adj [][]assignEdge
}

func newAssignInstance(g *graph.Graph) *assignInstance {
	n := g.NumNodes()
	inst := &assignInstance{g: g, n: n, adj: make([][]assignEdge, n)}
	bestTo := make(map[int32]graph.ArcID, 8)
	for u := graph.NodeID(0); int(u) < n; u++ {
		clear(bestTo)
		for _, id := range g.OutArcs(u) {
			a := g.Arc(id)
			if prev, ok := bestTo[int32(a.To)]; !ok || a.Weight < g.Arc(prev).Weight {
				bestTo[int32(a.To)] = id
			}
		}
		edges := make([]assignEdge, 0, len(bestTo)+1)
		edges = append(edges, assignEdge{obj: int32(u), arcID: -1}) // skip
		for to, id := range bestTo {
			edges = append(edges, assignEdge{obj: to, arcID: id, w: g.Arc(id).Weight})
		}
		// Map iteration order is randomized; sort so the oracle's edge scan
		// order — and with it the operation counts — is deterministic.
		sort.Slice(edges[1:], func(i, j int) bool { return edges[1+i].obj < edges[1+j].obj })
		inst.adj[u] = edges
	}
	return inst
}

func (inst *assignInstance) cost(e assignEdge, p, q int64) int64 {
	if e.arcID < 0 {
		return 0
	}
	return q*e.w - p
}

// negativeCycle decomposes the matching (a permutation given as the chosen
// edge index per person) into cycles and returns the arc IDs of one with
// negative probe cost, or nil if none exists.
func (inst *assignInstance) negativeCycle(match []int32, p, q int64) []graph.ArcID {
	visited := make([]bool, inst.n)
	for start := 0; start < inst.n; start++ {
		if visited[start] {
			continue
		}
		var (
			cycle []graph.ArcID
			total int64
			real  bool
		)
		u := int32(start)
		for !visited[u] {
			visited[u] = true
			e := inst.adj[u][match[u]]
			if e.arcID >= 0 {
				cycle = append(cycle, e.arcID)
				total += inst.cost(e, p, q)
				real = true
			}
			u = e.obj
		}
		if real && total < 0 {
			return cycle
		}
	}
	return nil
}

// solveAuction solves the assignment instance exactly with the ε-scaling
// auction algorithm of Bertsekas (the engine inside OA1): benefits are
// costs negated and scaled by n+1, ε starts at half the benefit range and
// halves each phase down to 1, at which point ε-complementary slackness
// forces the true optimum. Returns the optimal (unscaled) total cost and
// the matching as the chosen edge index per person.
func (inst *assignInstance) solveAuction(p, q int64, counts *counter.Counts) (int64, []int32) {
	n := inst.n
	scale := int64(n + 1)
	// benefit(u, k) = -cost * scale
	benefit := func(u int32, k int32) int64 {
		return -inst.cost(inst.adj[u][k], p, q) * scale
	}
	var maxAbs int64 = 1
	for u := 0; u < n; u++ {
		for k := range inst.adj[u] {
			if b := benefit(int32(u), int32(k)); abs64(b) > maxAbs {
				maxAbs = abs64(b)
			}
		}
	}

	price := make([]int64, n)
	owner := make([]int32, n)   // object -> person
	matched := make([]int32, n) // person -> edge index
	queue := make([]int32, 0, n)

	eps := maxAbs / 2
	if eps < 1 {
		eps = 1
	}
	for {
		// Start of phase: unassign everyone, keep prices.
		for j := range owner {
			owner[j] = -1
		}
		queue = queue[:0]
		for u := 0; u < n; u++ {
			matched[u] = -1
			queue = append(queue, int32(u))
		}
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			// Best and second-best values among u's edges.
			var (
				bestK      int32 = -1
				bestV      int64
				secondV    int64
				haveSecond bool
			)
			for k := range inst.adj[u] {
				if counts != nil {
					counts.Relaxations++
				}
				v := benefit(u, int32(k)) - price[inst.adj[u][k].obj]
				switch {
				case bestK < 0:
					bestK, bestV = int32(k), v
				case v > bestV:
					secondV, haveSecond = bestV, true
					bestK, bestV = int32(k), v
				case !haveSecond || v > secondV:
					secondV, haveSecond = v, true
				}
			}
			if !haveSecond {
				// A person with a single edge bids enough to hold the
				// object for the rest of the phase.
				secondV = bestV - (2*maxAbs + eps + 1)
			}
			// The bid raises the price so u is indifferent to its second
			// choice, plus ε.
			j := inst.adj[u][bestK].obj
			price[j] += bestV - secondV + eps
			if prev := owner[j]; prev >= 0 {
				matched[prev] = -1
				queue = append(queue, prev)
			}
			owner[j] = u
			matched[u] = bestK
		}
		if eps == 1 {
			break
		}
		eps /= 2
		if eps < 1 {
			eps = 1
		}
	}

	var total int64
	for u := 0; u < n; u++ {
		total += inst.cost(inst.adj[u][matched[u]], p, q)
	}
	return total, matched
}

// solveSSP solves the assignment instance exactly with successive shortest
// paths (Dijkstra over reduced costs with dual potentials — the successive-
// shortest-path half of the Orlin–Ahuja hybrid, used as OA2's engine).
func (inst *assignInstance) solveSSP(p, q int64, counts *counter.Counts) (int64, []int32) {
	n := inst.n
	// Shift all edge costs to be non-negative; every perfect matching
	// shifts by exactly n·shift, so the argmin is unchanged.
	var shift int64
	for u := 0; u < n; u++ {
		for _, e := range inst.adj[u] {
			if c := inst.cost(e, p, q); c < shift {
				shift = c
			}
		}
	}
	cost := func(u int32, k int32) int64 {
		return inst.cost(inst.adj[u][k], p, q) - shift
	}

	const inf = int64(1) << 62
	pip := make([]int64, n)     // person potentials
	pio := make([]int64, n)     // object potentials
	owner := make([]int32, n)   // object -> person
	matched := make([]int32, n) // person -> edge index
	for j := range owner {
		owner[j] = -1
	}
	for u := range matched {
		matched[u] = -1
	}

	distP := make([]int64, n)
	distO := make([]int64, n)
	prevP := make([]int32, n) // object -> person that reached it
	prevK := make([]int32, n) // object -> edge index at that person
	doneO := make([]bool, n)

	type qkey = int64
	for s := int32(0); s < int32(n); s++ {
		for i := range distP {
			distP[i] = inf
			distO[i] = inf
			doneO[i] = false
			prevP[i] = -1
		}
		h := pq.NewBinHeap(func(a, b qkey) bool { return a < b }, nil)
		expand := func(i int32) {
			for k := range inst.adj[i] {
				if counts != nil {
					counts.Relaxations++
				}
				e := inst.adj[i][k]
				rc := cost(i, int32(k)) + pip[i] - pio[e.obj]
				if nd := distP[i] + rc; nd < distO[e.obj] {
					distO[e.obj] = nd
					prevP[e.obj] = i
					prevK[e.obj] = int32(k)
					h.Insert(nd, e.obj)
				}
			}
		}
		distP[s] = 0
		expand(s)
		target := int32(-1)
		for h.Len() > 0 {
			top := h.ExtractMin()
			j := top.Value
			if doneO[j] || top.Key != distO[j] {
				continue
			}
			doneO[j] = true
			if owner[j] < 0 {
				target = j
				break
			}
			i := owner[j]
			distP[i] = distO[j] // matched reverse edge has reduced cost 0
			expand(i)
		}
		if target < 0 {
			panic("core: assignment instance infeasible (missing diagonal?)")
		}
		d := distO[target]
		for i := 0; i < n; i++ {
			if distP[i] < d {
				pip[i] += distP[i] - d
			}
			if distO[i] < d {
				pio[i] += distO[i] - d
			}
		}
		// Augment along the alternating path back to s.
		j := target
		for {
			i := prevP[j]
			k := prevK[j]
			jPrev := int32(-1)
			if matched[i] >= 0 {
				jPrev = inst.adj[i][matched[i]].obj
			}
			matched[i] = k
			owner[j] = i
			if i == s {
				break
			}
			j = jPrev
		}
	}

	var total int64
	for u := 0; u < n; u++ {
		total += inst.cost(inst.adj[u][matched[u]], p, q)
	}
	return total, matched
}
