package core

import (
	"fmt"

	"repro/internal/counter"
	"repro/internal/graph"
	"repro/internal/numeric"
	"repro/internal/pq"
)

func init() {
	register("ko", func() Algorithm { return koAlg{} })
	register("yto", func() Algorithm { return ytoAlg{} })
}

// frac is the exact breakpoint key λ = num/den (den > 0) used by the
// parametric heaps; comparisons go through 128-bit cross multiplication so
// no breakpoint is ever misordered by rounding.
type frac struct {
	num, den int64
}

func fracLess(a, b frac) bool { return numeric.CmpFrac(a.num, a.den, b.num, b.den) < 0 }

// paramTree is the shortest-path-tree state shared by KO and YTO, for means
// and ratios alike. The tree is rooted at node 0; for every node, a(v) and
// b(v) are the weight and the transit of its tree path, transit read
// through the solve's view (unit: every arc counts 1, so b is the arc
// count), so its distance in G_λ is a(v) − λ·b(v). The optimum is the first
// λ at which a pivot closes a cycle.
type paramTree struct {
	g       *graph.Graph
	unit    bool
	a       []int64
	b       []int64
	treeArc []graph.ArcID // arc whose head is v; -1 at the root

	// children intrusive doubly-linked lists for subtree traversal.
	childHead, childNext, childPrev []int32

	inSub   []bool
	subtree []graph.NodeID
}

// newParamTree returns an empty tree on g; build makes it the initial tree.
func newParamTree(g *graph.Graph) *paramTree {
	n := g.NumNodes()
	t := &paramTree{
		g:         g,
		a:         make([]int64, n),
		b:         make([]int64, n),
		treeArc:   make([]graph.ArcID, n),
		childHead: make([]int32, n),
		childNext: make([]int32, n),
		childPrev: make([]int32, n),
		inSub:     make([]bool, n),
	}
	for i := 0; i < n; i++ {
		t.treeArc[i] = -1
		t.childHead[i] = -1
		t.childNext[i] = -1
		t.childPrev[i] = -1
	}
	return t
}

// build makes t, under the transit view unit, the shortest path tree of
// G_λ0 for a λ0 below every cycle value. The initial tree is the one thing
// the two views cannot share. A mean solve starts at λ0 = w_min − 1, where
// every reduced weight w − λ0 is positive, so a lexicographic Dijkstra
// suffices. A ratio solve can have zero-transit arcs, whose reduced weight w
// stays negative at any λ0, so it starts at λ0 = −(n·|w|max + 1) with a
// lexicographic Bellman–Ford, and reports ErrNumericRange when the exact
// path costs at that λ0 could overflow int64. newParamTree stays apart so
// that it inlines and the tree itself needs no heap allocation.
func (t *paramTree) build(unit bool) error {
	t.unit = unit
	if unit {
		minW, _ := t.g.WeightRange()
		t.dijkstraTree(minW - 1)
		return nil
	}
	lambda0, err := ratioLambda0(t.g)
	if err != nil {
		return err
	}
	t.bellmanFordTree(lambda0)
	return nil
}

// dijkstraTree builds the mean view's shortest path tree at λ0 (all
// reduced weights positive) with a lexicographic Dijkstra: primary key
// the reduced path weight, secondary key the negated arc count, because for
// λ slightly above λ0 the longer of two equal-weight paths is the shorter
// one in G_λ. Runs in O(m log n); all arithmetic exact.
func (t *paramTree) dijkstraTree(lambda0 int64) {
	g := t.g
	n := g.NumNodes()
	type key struct {
		cost int64
		negB int64
	}
	dist := make([]key, n)
	done := make([]bool, n)
	const unreach = int64(1) << 62
	for i := range dist {
		dist[i] = key{unreach, 0}
	}
	dist[0] = key{0, 0}
	less := func(x, y key) bool {
		if x.cost != y.cost {
			return x.cost < y.cost
		}
		return x.negB < y.negB
	}
	h := pq.NewBinHeap(less, nil)
	h.Insert(dist[0], 0)
	for h.Len() > 0 {
		top := h.ExtractMin()
		v := graph.NodeID(top.Value)
		if done[v] {
			continue // stale duplicate entry
		}
		done[v] = true
		for _, id := range g.OutArcs(v) {
			arc := g.Arc(id)
			w := arc.Weight - lambda0
			nd := key{dist[v].cost + w, dist[v].negB - 1}
			if done[arc.To] || !less(nd, dist[arc.To]) {
				continue
			}
			dist[arc.To] = nd
			t.treeArc[arc.To] = id
			h.Insert(nd, int32(arc.To)) // lazy: duplicates skipped via done[]
		}
	}
	t.linkChildren()
	// Compute a, b top-down (BFS from root over children lists).
	order := make([]graph.NodeID, 0, n)
	order = append(order, 0)
	for qi := 0; qi < len(order); qi++ {
		u := order[qi]
		for c := t.childHead[u]; c >= 0; c = t.childNext[c] {
			v := graph.NodeID(c)
			arc := g.Arc(t.treeArc[v])
			t.a[v] = t.a[u] + arc.Weight
			t.b[v] = t.b[u] + 1
			order = append(order, v)
		}
	}
}

// bellmanFordTree builds the ratio view's shortest path tree at the
// integer λ0 with a lexicographic Bellman–Ford: cost a − λ0·b
// exactly, ties broken toward larger transit, which is the shorter path for
// λ slightly above λ0.
func (t *paramTree) bellmanFordTree(lambda0 int64) {
	g := t.g
	n := g.NumNodes()
	const unreach = int64(1) << 62
	cost := make([]int64, n)
	for i := range cost {
		cost[i] = unreach
	}
	cost[0] = 0
	for pass := 0; pass < n; pass++ {
		changed := false
		for id := graph.ArcID(0); int(id) < g.NumArcs(); id++ {
			arc := g.Arc(id)
			if cost[arc.From] >= unreach {
				continue
			}
			nc := cost[arc.From] + arc.Weight - lambda0*arc.Transit
			nb := t.b[arc.From] + arc.Transit
			if nc < cost[arc.To] || (nc == cost[arc.To] && nb > t.b[arc.To]) {
				cost[arc.To] = nc
				t.a[arc.To] = t.a[arc.From] + arc.Weight
				t.b[arc.To] = nb
				t.treeArc[arc.To] = id
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	t.linkChildren()
}

// ratioLambda0 returns an integer strictly below every cycle ratio of g,
// −(n·|w|max + 1), since |ρ(C)| = |w(C)|/t(C) ≤ n·|w|max. It reports
// ErrNumericRange when the ratio tree's exact int64 path costs, which reach
// n·(|w|max + |λ0|·tmax), could overflow there; the estimate runs in float64
// because it only needs to be conservative.
func ratioLambda0(g *graph.Graph) (int64, error) {
	minW, maxW := g.WeightRange()
	absW := max(maxW, -minW)
	_, maxT := g.TransitRange()
	n := float64(g.NumNodes())
	lam := n*float64(max(absW, 1)) + 1
	if n*(float64(max(absW, 1))+lam*float64(max(maxT, 1))) >= 1<<61 {
		return 0, fmt.Errorf("%w: parametric path costs at λ0 = −(n·|w|max + 1)", ErrNumericRange)
	}
	return -(int64(g.NumNodes())*absW + 1), nil
}

// parametricMaxIter is the default pivot budget of a parametric solve: n²+16
// for a mean solve, plus the total transit for a ratio solve.
func parametricMaxIter(g *graph.Graph, opt Options, unit bool) int {
	n := g.NumNodes()
	if unit {
		return opt.maxIter(n*n + 16)
	}
	return opt.maxIter(n*n + int(g.TotalTransit()) + 16)
}

// linkChildren links every non-root node into its parent's child list.
func (t *paramTree) linkChildren() {
	for v := graph.NodeID(0); int(v) < len(t.treeArc); v++ {
		if t.treeArc[v] >= 0 {
			t.linkChild(v)
		}
	}
}

// linkChild inserts v into its parent's child list (treeArc[v] must be set).
func (t *paramTree) linkChild(v graph.NodeID) {
	u := t.g.Arc(t.treeArc[v]).From
	t.childNext[v] = t.childHead[u]
	t.childPrev[v] = -1
	if t.childHead[u] >= 0 {
		t.childPrev[t.childHead[u]] = int32(v)
	}
	t.childHead[u] = int32(v)
}

// unlinkChild removes v from its current parent's child list.
func (t *paramTree) unlinkChild(v graph.NodeID) {
	u := t.g.Arc(t.treeArc[v]).From
	if t.childPrev[v] >= 0 {
		t.childNext[t.childPrev[v]] = t.childNext[v]
	} else {
		t.childHead[u] = t.childNext[v]
	}
	if t.childNext[v] >= 0 {
		t.childPrev[t.childNext[v]] = t.childPrev[v]
	}
	t.childNext[v], t.childPrev[v] = -1, -1
}

// collectSubtree gathers the subtree rooted at v into t.subtree and marks
// t.inSub. Call releaseSubtree afterwards.
func (t *paramTree) collectSubtree(v graph.NodeID) {
	t.subtree = t.subtree[:0]
	t.subtree = append(t.subtree, v)
	t.inSub[v] = true
	for qi := 0; qi < len(t.subtree); qi++ {
		u := t.subtree[qi]
		for c := t.childHead[u]; c >= 0; c = t.childNext[c] {
			t.inSub[c] = true
			t.subtree = append(t.subtree, graph.NodeID(c))
		}
	}
}

func (t *paramTree) releaseSubtree() {
	for _, v := range t.subtree {
		t.inSub[v] = false
	}
}

// breakpoint returns the λ at which non-tree arc id becomes tight, as a
// fraction, and whether it is a forward breakpoint (positive denominator;
// arcs with non-positive denominator never become binding as λ increases).
func (t *paramTree) breakpoint(id graph.ArcID) (frac, bool) {
	arc := t.g.Arc(id)
	den := t.b[arc.From] + transit(arc, t.unit) - t.b[arc.To]
	if den <= 0 {
		return frac{}, false
	}
	return frac{num: t.a[arc.From] + arc.Weight - t.a[arc.To], den: den}, true
}

// closes reports whether pivoting arc e = (u, v) into the tree would close
// a cycle, that is whether u lies in the subtree of v.
func (t *paramTree) closes(e graph.ArcID) bool {
	arc := t.g.Arc(e)
	t.collectSubtree(arc.To)
	closes := t.inSub[arc.From]
	t.releaseSubtree()
	return closes
}

// pivot re-parents v through arc e = (u, v), updating a and b for the whole
// subtree of v, and returns that subtree (valid until the next collect).
// The caller must already have verified that u is not in the subtree of v.
func (t *paramTree) pivot(e graph.ArcID) []graph.NodeID {
	arc := t.g.Arc(e)
	u, v := arc.From, arc.To
	deltaA := t.a[u] + arc.Weight - t.a[v]
	deltaB := t.b[u] + transit(arc, t.unit) - t.b[v]
	t.unlinkChild(v)
	t.treeArc[v] = e
	t.linkChild(v)
	t.collectSubtree(v)
	for _, x := range t.subtree {
		t.a[x] += deltaA
		t.b[x] += deltaB
	}
	return t.subtree
}

// result returns the outcome of a solve whose pivot e, at breakpoint key,
// closes a cycle: the tree path v ⤳ u plus e = (u, v), in forward order,
// and the breakpoint as the cycle's exact value.
func (t *paramTree) result(e graph.ArcID, key frac, counts counter.Counts) Result {
	arc := t.g.Arc(e)
	u, v := arc.From, arc.To
	var rev []graph.ArcID
	for x := u; x != v; {
		id := t.treeArc[x]
		rev = append(rev, id)
		x = t.g.Arc(id).From
	}
	cycle := make([]graph.ArcID, 0, len(rev)+1)
	for i := len(rev) - 1; i >= 0; i-- {
		cycle = append(cycle, rev[i])
	}
	cycle = append(cycle, e)
	return Result{Mean: numeric.NewRat(key.num, key.den), Cycle: cycle, Exact: true, Counts: counts}
}

// setEntry brings the heap entry *node of value to key, or removes it when
// !ok: a new entry is inserted, a smaller key decreased in place, and a
// larger one deleted and re-inserted. KO keeps one entry per arc and YTO
// one per node; both update it here.
func setEntry(h pq.Heap[frac], node *pq.Node[frac], key frac, ok bool, value int32) {
	switch {
	case !ok:
		if *node != nil {
			h.Delete(*node)
			*node = nil
		}
	case *node == nil:
		*node = h.Insert(key, value)
	default:
		old := (*node).GetKey()
		if fracLess(key, old) {
			h.DecreaseKey(*node, key)
		} else if fracLess(old, key) {
			h.Delete(*node)
			*node = h.Insert(key, value)
		}
	}
}

// koAlg is the Karp–Orlin parametric shortest path algorithm [Discrete
// Applied Math 1981]: start with λ below every cycle mean and a shortest
// path tree of G_λ; repeatedly advance λ to the smallest breakpoint at which
// a non-tree arc becomes tight and pivot it into the tree; stop when a pivot
// would create a cycle — that cycle's mean is λ*. The heap holds one entry
// per candidate arc, which is precisely the granularity difference to YTO
// that the paper's §4.2 heap-operation counts expose. O(nm log n) with the
// Fibonacci heap the paper (and our default) uses.
type koAlg struct{}

func (koAlg) Name() string { return "ko" }

func (koAlg) Solve(g *graph.Graph, opt Options) (Result, error) {
	if err := checkSolveInput(g); err != nil {
		return Result{}, err
	}
	return koRun(g, opt, true)
}

// KORatio is the Karp–Orlin algorithm on the cost-to-time ratio problem:
// it returns ρ* = min Σw(C)/Σt(C) over the cycles C of a strongly connected
// graph in Result.Mean, exact, with a cycle attaining it. It runs koAlg's
// loop with b accumulating each arc's transit instead of 1. The caller
// validates the transits: none negative and no cycle of zero total transit
// (internal/ratio's checkInput). Weights need not fit the mean solvers'
// ±(2^31−1): a graph whose exact path costs could overflow int64 is
// reported as ErrNumericRange. The default pivot budget is n² + Σt + 16.
func KORatio(g *graph.Graph, opt Options) (Result, error) { return koRun(g, opt, false) }

// koRun is the one Karp–Orlin loop, behind koAlg.Solve and KORatio. unit
// selects the transit view for the whole solve, as in howardRun.
func koRun(g *graph.Graph, opt Options, unit bool) (Result, error) {
	t := newParamTree(g)
	if err := t.build(unit); err != nil {
		return Result{}, err
	}
	var counts counter.Counts
	h := pq.New[frac](opt.HeapKind, fracLess, &counts)
	arcNode := make([]pq.Node[frac], g.NumArcs())
	// refresh recomputes arc id's heap entry from the current tree.
	refresh := func(id graph.ArcID) {
		key, ok := t.breakpoint(id)
		ok = ok && t.treeArc[g.Arc(id).To] != id // tree arcs have no entry
		setEntry(h, &arcNode[id], key, ok, int32(id))
	}
	for id := graph.ArcID(0); int(id) < g.NumArcs(); id++ {
		refresh(id)
	}

	maxIter := parametricMaxIter(g, opt, unit)
	for iter := 0; iter < maxIter; iter++ {
		if err := opt.checkpoint(); err != nil {
			return Result{}, err
		}
		top := h.ExtractMin()
		if top == nil {
			return Result{}, ErrAcyclic
		}
		counts.Iterations++
		e := graph.ArcID(top.GetValue())
		arcNode[e] = nil
		if t.closes(e) {
			return t.result(e, top.GetKey(), counts), nil
		}

		// Recompute the key of every arc with exactly one endpoint in the
		// moved subtree. The arc that left the tree is among them: it
		// enters v from outside the subtree.
		for _, x := range t.pivot(e) {
			for _, id := range g.OutArcs(x) {
				if !t.inSub[g.Arc(id).To] {
					refresh(id)
				}
			}
			for _, id := range g.InArcs(x) {
				if !t.inSub[g.Arc(id).From] {
					refresh(id)
				}
			}
		}
		t.releaseSubtree()
	}
	return Result{}, ErrIterationLimit
}

// ytoAlg is the Young–Tarjan–Orlin refinement of KO [Networks 1991]: the
// heap holds one entry per *node*, keyed by the best breakpoint among the
// arcs entering it, so a pivot triggers one heap update per affected node
// instead of one per affected arc. Same pivots, same λ trajectory, fewer
// heap operations — the effect the paper measures in §4.2. O(nm + n² log n).
type ytoAlg struct{}

func (ytoAlg) Name() string { return "yto" }

func (ytoAlg) Solve(g *graph.Graph, opt Options) (Result, error) {
	if err := checkSolveInput(g); err != nil {
		return Result{}, err
	}
	return ytoRun(g, opt, true)
}

// YTORatio is the Young–Tarjan–Orlin algorithm on the cost-to-time ratio
// problem, under the same contract as KORatio.
func YTORatio(g *graph.Graph, opt Options) (Result, error) { return ytoRun(g, opt, false) }

// ytoRun is the one Young–Tarjan–Orlin loop, behind ytoAlg.Solve and
// YTORatio. unit selects the transit view for the whole solve, as in
// howardRun.
func ytoRun(g *graph.Graph, opt Options, unit bool) (Result, error) {
	t := newParamTree(g)
	if err := t.build(unit); err != nil {
		return Result{}, err
	}
	var counts counter.Counts
	h := pq.New[frac](opt.HeapKind, fracLess, &counts)
	n := g.NumNodes()
	nodeEntry := make([]pq.Node[frac], n)
	bestArc := make([]graph.ArcID, n)
	// refreshNode recomputes node v's best incoming breakpoint and its
	// heap entry.
	refreshNode := func(v graph.NodeID) {
		var best frac
		bestID := graph.ArcID(-1)
		for _, id := range g.InArcs(v) {
			if t.treeArc[v] == id {
				continue
			}
			if key, ok := t.breakpoint(id); ok && (bestID < 0 || fracLess(key, best)) {
				best, bestID = key, id
			}
		}
		bestArc[v] = bestID
		setEntry(h, &nodeEntry[v], best, bestID >= 0, int32(v))
	}
	for v := graph.NodeID(0); int(v) < n; v++ {
		refreshNode(v)
	}

	dirty := make([]bool, n)
	var dirtyList []graph.NodeID
	markDirty := func(v graph.NodeID) {
		if !dirty[v] {
			dirty[v] = true
			dirtyList = append(dirtyList, v)
		}
	}

	maxIter := parametricMaxIter(g, opt, unit)
	for iter := 0; iter < maxIter; iter++ {
		if err := opt.checkpoint(); err != nil {
			return Result{}, err
		}
		top := h.ExtractMin()
		if top == nil {
			return Result{}, ErrAcyclic
		}
		counts.Iterations++
		v := graph.NodeID(top.GetValue())
		nodeEntry[v] = nil
		e := bestArc[v]
		if t.closes(e) {
			return t.result(e, top.GetKey(), counts), nil
		}

		// Affected nodes: every node in the subtree (all its incoming
		// breakpoints moved) and every head of an arc leaving the subtree.
		dirtyList = dirtyList[:0]
		for _, x := range t.pivot(e) {
			markDirty(x)
			for _, id := range g.OutArcs(x) {
				to := g.Arc(id).To
				if !t.inSub[to] {
					markDirty(to)
				}
			}
		}
		t.releaseSubtree()
		for _, x := range dirtyList {
			dirty[x] = false
			refreshNode(x)
		}
	}
	return Result{}, ErrIterationLimit
}
