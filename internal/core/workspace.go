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
	policy     []graph.ArcID
	gain       []numeric.Rat
	gainRank   []int32
	gainSet    []bool
	cycleSeq   []int32
	d          []float64
	childHead  []int32
	childNext  []int32
	queue      []graph.NodeID
	cycleGains []numeric.Rat
	rankIdx    []int32
	ranks      []int32
	bestCyc    []graph.ArcID
	pc         pcScratch
	bfDist     []int64
	bfParent   []graph.ArcID
}

var howardPool = sync.Pool{New: func() any { return new(howardWS) }}

func getHowardWS(n int) *howardWS {
	var ws *howardWS
	if disableWorkspacePools.Load() {
		ws = new(howardWS)
	} else {
		ws = howardPool.Get().(*howardWS)
	}
	ws.policy = grow(ws.policy, n)
	ws.gain = grow(ws.gain, n)
	ws.gainRank = grow(ws.gainRank, n)
	ws.gainSet = grow(ws.gainSet, n)
	ws.cycleSeq = grow(ws.cycleSeq, n)
	ws.childHead = grow(ws.childHead, n)
	ws.childNext = grow(ws.childNext, n)
	ws.bfDist = grow(ws.bfDist, n)
	ws.bfParent = grow(ws.bfParent, n)
	// Biases must start at zero: the value-determination step keeps each
	// cycle's normalization node at its previous bias, so stale values from
	// an earlier run would change the iteration trajectory.
	ws.d = grow(ws.d, n)
	for i := range ws.d {
		ws.d[i] = 0
	}
	ws.queue = ws.queue[:0]
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
	pc      pcScratch
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

// pcScratch holds the functional-graph traversal state of policyCycles so
// Howard's per-iteration cycle sweep reuses one set of buffers.
type pcScratch struct {
	state   []int32
	walkPos []int32
	walk    []graph.NodeID
	cycle   []graph.ArcID
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
