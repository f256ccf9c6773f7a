package core

// This file implements workspace pooling for the hot solvers. A solver run
// needs a dozen O(n) scratch slices (plus Karp's Θ(n²) D table); allocating
// them afresh on every Solve makes repeated solves — the bench harness's
// inner loop, a server answering queries, the parallel SCC driver —
// GC-bound. Each hot solver therefore draws a typed workspace from a
// sync.Pool on entry and returns it on exit, so the steady state allocates
// near-zero. Workspaces are never shared: a Solve call owns its workspace
// for the whole run, which is what makes every solver safe for concurrent
// use.

import (
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/numeric"
)

// disableWorkspacePools switches every solver back to fresh allocations.
// It exists so benchmarks can measure the pooled steady state against the
// historical fresh-allocation path; it is not part of the public API.
var disableWorkspacePools atomic.Bool

// grow returns s with length n, reusing the backing array when capacity
// allows. Contents are unspecified; callers must initialize what they read.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// howardWS is the per-run scratch state of Howard's algorithm.
type howardWS struct {
	// out holds every out-arc in CSR order, outStart[v]:outStart[v+1]
	// being v's row, so the improvement sweep reads arcs sequentially.
	out      []howardArc
	outStart []int32
	policy   []graph.ArcID
	polTo    []graph.NodeID // head of each node's policy arc
	polW     []float64      // weight of each node's policy arc
	polT     []float64      // transit of each node's policy arc
	node     []howardNode
	// cycleGains lists this iteration's policy-cycle means in the order
	// the walk closed them; howardNode.seq indexes it.
	cycleGains []numeric.Rat
	rankIdx    []int32
	ranks      []int32
	bestCyc    []graph.ArcID
	pc         graph.PolicyCycles
	pi         []int64 // exact potentials of the converged policy
	bfDist     []int64
	bfParent   []graph.ArcID
}

// howardArc is one out-arc as the improvement sweep reads it; t is 1 in a
// mean solve.
type howardArc struct {
	w, t float64
	to   graph.NodeID
	id   graph.ArcID
}

// howardNode is one node's value-determination state, kept together so the
// sweep reads an arc head's bias, gain and gain rank from one place.
type howardNode struct {
	d    float64 // bias
	gain float64 // Float64 of the node's exact basin gain
	rank int32   // rank of the gain among this iteration's distinct gains
	seq  int32   // index of the node's policy cycle in cycleGains
}

var howardPool = sync.Pool{New: func() any { return new(howardWS) }}

// getHowardWS returns a workspace sized for g with the CSR arc rows filled,
// their transits read through transit.
func getHowardWS(g *graph.Graph, unit bool) *howardWS {
	var ws *howardWS
	if disableWorkspacePools.Load() {
		ws = new(howardWS)
	} else {
		ws = howardPool.Get().(*howardWS)
	}
	n := g.NumNodes()
	ws.policy = grow(ws.policy, n)
	ws.polTo = grow(ws.polTo, n)
	ws.polW = grow(ws.polW, n)
	ws.polT = grow(ws.polT, n)
	ws.pi = grow(ws.pi, n)
	ws.bfDist = grow(ws.bfDist, n)
	ws.bfParent = grow(ws.bfParent, n)
	ws.outStart = grow(ws.outStart, n+1)
	ws.out = grow(ws.out, g.NumArcs())
	arcs := g.Arcs()
	k := int32(0)
	for v := graph.NodeID(0); int(v) < n; v++ {
		ws.outStart[v] = k
		for _, id := range g.OutArcs(v) {
			a := arcs[id]
			ws.out[k] = howardArc{w: float64(a.Weight), t: float64(transit(a, unit)), to: a.To, id: id}
			k++
		}
	}
	ws.outStart[n] = k
	// Biases must start at zero: the value-determination step keeps each
	// cycle's normalization node at its previous bias, so stale values from
	// an earlier run would change the iteration trajectory.
	ws.node = grow(ws.node, n)
	for i := range ws.node {
		ws.node[i] = howardNode{}
	}
	ws.cycleGains = ws.cycleGains[:0]
	ws.bestCyc = ws.bestCyc[:0]
	return ws
}

func (ws *howardWS) release() {
	if ws != nil && !disableWorkspacePools.Load() {
		howardPool.Put(ws)
	}
}

// karpWS is the scratch state shared by the Karp variants: the flattened
// (n+1)×n D table for karp, and the rolling rows plus fold state for karp2.
type karpWS struct {
	D       []int64
	prev    []int64
	cur     []int64
	dn      []int64
	maxNum  []int64
	maxDen  []int64
	haveMax []bool
}

var karpPool = sync.Pool{New: func() any { return new(karpWS) }}

func getKarpWS() *karpWS {
	if disableWorkspacePools.Load() {
		return new(karpWS)
	}
	return karpPool.Get().(*karpWS)
}

func (ws *karpWS) release() {
	if ws != nil && !disableWorkspacePools.Load() {
		karpPool.Put(ws)
	}
}

// madaniWS is the per-run scratch state of Madani's value iteration: the
// seed policy, the integer value vector with its parent arcs, and the
// buffers of the per-pass parent-cycle scan.
type madaniWS struct {
	policy  []graph.ArcID
	d       []int64
	parent  []graph.ArcID
	bestCyc []graph.ArcID
	pc      graph.PolicyCycles
	scan    graph.ParentCycles
}

var madaniPool = sync.Pool{New: func() any { return new(madaniWS) }}

func getMadaniWS(n int) *madaniWS {
	var ws *madaniWS
	if disableWorkspacePools.Load() {
		ws = new(madaniWS)
	} else {
		ws = madaniPool.Get().(*madaniWS)
	}
	ws.policy = grow(ws.policy, n)
	ws.d = grow(ws.d, n)
	ws.parent = grow(ws.parent, n)
	ws.bestCyc = ws.bestCyc[:0]
	return ws
}

func (ws *madaniWS) release() {
	if ws != nil && !disableWorkspacePools.Load() {
		madaniPool.Put(ws)
	}
}

// extractWS is the scratch state of extractCriticalCycle (Bellman–Ford
// distances plus the tight-subgraph DFS), pooled because finishExact runs
// once per Karp/DG/Lawler-family solve.
type extractWS struct {
	dist   []int64
	parent []graph.ArcID
	color  []byte
	onPath []graph.ArcID
	stack  []ecFrame
}

type ecFrame struct {
	v   graph.NodeID
	arc int32
}

var extractPool = sync.Pool{New: func() any { return new(extractWS) }}

func getExtractWS(n int) *extractWS {
	var ws *extractWS
	if disableWorkspacePools.Load() {
		ws = new(extractWS)
	} else {
		ws = extractPool.Get().(*extractWS)
	}
	ws.dist = grow(ws.dist, n)
	ws.parent = grow(ws.parent, n)
	ws.color = grow(ws.color, n)
	for i := range ws.color {
		ws.color[i] = 0
	}
	ws.onPath = ws.onPath[:0]
	ws.stack = ws.stack[:0]
	return ws
}

func (ws *extractWS) release() {
	if ws != nil && !disableWorkspacePools.Load() {
		extractPool.Put(ws)
	}
}
