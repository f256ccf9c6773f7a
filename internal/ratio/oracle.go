package ratio

// The shared parametric negative-cycle oracle. Every ratio algorithm in this
// package reduces to one question — "does some cycle C satisfy
// den·w(C) − num·t(C) < 0, i.e. ρ(C) < num/den?" — and before this file each
// solver carried its own private Bellman–Ford core with slightly different
// allocation, cancellation, and counter behavior. The oracle centralizes the
// probe: pooled workspaces (zero steady-state allocations across probes),
// a cancellation checkpoint per pass, a ProbeEvent per probe when tracing is
// enabled, and an exact overflow pre-check that routes out-of-range inputs
// to ErrNumericRange instead of silently wrapping int64.
//
// This is the `ParametricAPI` shape ROADMAP item 2 asks for: Lawler's
// bisection, Dinkelbach/Fox iteration, Howard's final certificate, Burns'
// initial potentials, Megiddo's parametric search, and the Stern–Brocot
// mediant search all sit on the one tuned core below.

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/counter"
	"repro/internal/graph"
	"repro/internal/numeric"
	"repro/internal/obs"
)

// probeWS is the reusable scratch space of one oracle: Bellman–Ford state,
// the parent-cycle scanner, and the tight-arc DFS state, pooled so repeated
// probes (a Lawler solve runs dozens) allocate nothing after the first.
type probeWS struct {
	dist   []int64
	parent []graph.ArcID
	scan   graph.ParentCycles
	color  []byte
	onPath []graph.ArcID
	stack  []dfsFrame
}

type dfsFrame struct {
	v   graph.NodeID
	arc int32
}

var probePool = sync.Pool{New: func() any { return new(probeWS) }}

func (ws *probeWS) grow(n int) {
	if cap(ws.dist) < n {
		ws.dist = make([]int64, n)
		ws.parent = make([]graph.ArcID, n)
		ws.color = make([]byte, n)
	}
	ws.dist = ws.dist[:n]
	ws.parent = ws.parent[:n]
	ws.color = ws.color[:n]
}

// oracle answers parametric feasibility probes on one fixed graph. It is not
// safe for concurrent use; create one per solve and Close it to return the
// workspace to the pool.
type oracle struct {
	g      *graph.Graph
	opt    core.Options
	counts *counter.Counts
	ws     *probeWS

	// absW and maxT are cached once so the per-probe overflow check is O(1).
	absW int64
	maxT int64

	// State of the most recent probe: when converged is true, ws.dist holds
	// the shortest distances under den·w − num·t for (lastNum, lastDen), the
	// input TightCycle needs.
	lastNum, lastDen int64
	converged        bool
}

// newOracle builds an oracle for g. opt supplies the cancellation token and
// tracer; counts, when non-nil, receives the same NegativeCycleChecks and
// Relaxations increments the private cores used to apply.
func newOracle(g *graph.Graph, opt core.Options, counts *counter.Counts) *oracle {
	minW, maxW := g.WeightRange()
	absW := maxW
	if -minW > absW {
		absW = -minW
	}
	var maxT int64
	for _, a := range g.Arcs() {
		t := a.Transit
		if t < 0 {
			t = -t
		}
		if t > maxT {
			maxT = t
		}
	}
	ws := probePool.Get().(*probeWS)
	ws.grow(g.NumNodes())
	return &oracle{g: g, opt: opt, counts: counts, ws: ws, absW: absW, maxT: maxT}
}

// Close returns the workspace to the pool. The oracle must not be used after
// Close, and slices returned by Dist become invalid.
func (o *oracle) Close() {
	if o.ws != nil {
		probePool.Put(o.ws)
		o.ws = nil
	}
}

// arcBound is the exact-arithmetic pre-check, with the graph-dependent parts
// cached. It returns perArc = den·absW + |num|·maxT, which bounds every
// reduced weight |den·w − num·t|, and ok = false unless (n+1)·perArc stays
// inside 2^62.
//
// That product bounds every distance a probe stores. While the parent graph
// is a forest, each distance is at least the weight of a parent path of at
// most n−1 arcs, hence ≥ −(n−1)·perArc. A distance below that therefore
// proves a parent cycle, and Probe stops at once to return it; the one
// relaxation that crossed the line adds at most one more perArc.
func (o *oracle) arcBound(num, den int64) (perArc int64, ok bool) {
	absP := num
	if absP < 0 {
		absP = -absP
	}
	if o.absW != 0 && den > (1<<62)/o.absW {
		return 0, false
	}
	if o.maxT != 0 && absP > (1<<62)/o.maxT {
		return 0, false
	}
	perArc = den*o.absW + absP*o.maxT
	if perArc < 0 {
		return 0, false
	}
	n := int64(o.g.NumNodes()) + 1
	const safe = int64(1) << 62
	return perArc, perArc <= safe/n
}

// Probe reports whether some cycle C has den·w(C) − num·t(C) < 0, i.e.
// ρ(C) < num/den (den > 0), returning one such cycle. The error is
// core.ErrCanceled when the run's cancellation token fired, or wraps
// ErrNumericRange when the scaled arithmetic cannot be carried out exactly
// in int64 for this graph.
func (o *oracle) Probe(num, den int64) (bool, []graph.ArcID, error) {
	counts := o.counts
	if counts != nil {
		counts.NegativeCycleChecks++
	}
	o.converged = false
	perArc, ok := o.arcBound(num, den)
	if !ok {
		return false, nil, fmt.Errorf("%w: feasibility probe at λ = %d/%d would overflow", ErrNumericRange, num, den)
	}

	tr := o.opt.Tracer
	traced := tr.Enabled()
	var start time.Time
	if traced {
		start = time.Now()
	}

	g := o.g
	n := g.NumNodes()
	dist, parent := o.ws.dist, o.ws.parent
	for i := range dist {
		dist[i] = 0
	}
	for i := range parent {
		parent[i] = -1
	}
	arcs := g.Arcs()
	floor := -int64(n-1) * perArc // see arcBound
	lastChanged := graph.NodeID(-1)
	var cycle []graph.ArcID
	pass := 0
	for pass < n {
		if o.opt.Canceled() {
			return false, nil, core.ErrCanceled
		}
		pass++
		lastChanged = -1
		for id, a := range arcs {
			if counts != nil {
				counts.Relaxations++
			}
			w := den*a.Weight - num*a.Transit
			if nd := dist[a.From] + w; nd < dist[a.To] {
				dist[a.To] = nd
				parent[a.To] = graph.ArcID(id)
				lastChanged = a.To
				if nd < floor {
					break
				}
			}
		}
		if lastChanged == -1 {
			o.lastNum, o.lastDen, o.converged = num, den, true
			if traced {
				tr.Probe(obs.ProbeEvent{Num: num, Den: den, Passes: pass, Duration: time.Since(start)})
			}
			return false, nil, nil
		}
		// Every relaxation is a strict exact improvement, so any cycle of
		// parent arcs is negative under den·w − num·t: return it now rather
		// than after n passes. Scanning only on passes 1, 2, 4, 8, … keeps
		// the O(n) scans to O(n log n) per probe. A distance below floor, or
		// any change on pass n, guarantees a parent cycle and forces a scan:
		// while the parent graph is acyclic, every distance is bounded below
		// by a parent path of at most n−1 arcs, a bound passes 1..n−1 have
		// already reached.
		if pass&(pass-1) == 0 || pass == n || dist[lastChanged] < floor {
			o.ws.scan.Scan(g, parent, func(c []graph.ArcID) bool {
				cycle = append([]graph.ArcID(nil), c...)
				return false
			})
			if cycle != nil {
				break
			}
		}
	}
	if cycle == nil {
		panic("ratio: distance changed on pass n with an acyclic parent graph")
	}
	if traced {
		tr.Probe(obs.ProbeEvent{Num: num, Den: den, Negative: true, Passes: pass, Duration: time.Since(start)})
	}
	return true, cycle, nil
}

// Dist returns the converged shortest distances of the most recent Probe
// (valid only when that probe reported no negative cycle, until the next
// Probe or Close). Burns' algorithm seeds its potentials from it.
func (o *oracle) Dist() []int64 {
	return o.ws.dist
}

// TightCycle searches the tight arcs of the most recent converged probe —
// those with dist[from] + den·w − num·t == dist[to] — for a cycle whose
// exact ratio equals num/den. Such a cycle exists if and only if
// ρ* = num/den, making TightCycle the oracle's equality test: Probe answers
// "ρ* < num/den?", TightCycle answers "ρ* = num/den?" for free, reusing the
// probe's distances instead of running a second Bellman–Ford.
//
// ok is false when no tight cycle of that ratio exists, or when the most
// recent probe did not converge at exactly (num, den).
func (o *oracle) TightCycle(num, den int64) ([]graph.ArcID, bool) {
	if !o.converged || o.lastNum != num || o.lastDen != den {
		return nil, false
	}
	g := o.g
	n := g.NumNodes()
	rho := numeric.NewRat(num, den)
	dist := o.ws.dist
	color := o.ws.color
	for i := range color {
		color[i] = 0
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	onPath := o.ws.onPath[:0]
	stack := o.ws.stack[:0]
	defer func() {
		o.ws.onPath = onPath[:0]
		o.ws.stack = stack[:0]
	}()
	for root := graph.NodeID(0); int(root) < n; root++ {
		if color[root] != white {
			continue
		}
		color[root] = gray
		stack = append(stack[:0], dfsFrame{v: root})
		onPath = onPath[:0]
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			out := g.OutArcs(f.v)
			advanced := false
			for int(f.arc) < len(out) {
				id := out[f.arc]
				f.arc++
				a := g.Arc(id)
				if dist[a.From]+den*a.Weight-num*a.Transit != dist[a.To] {
					continue
				}
				w := a.To
				switch color[w] {
				case gray:
					idx := -1
					for i := range stack {
						if stack[i].v == w {
							idx = i
							break
						}
					}
					var cycle []graph.ArcID
					for i := idx; i < len(stack)-1; i++ {
						cycle = append(cycle, onPath[i])
					}
					cycle = append(cycle, id)
					if r, ok := cycleRatio(g, cycle); ok && r.Equal(rho) {
						return cycle, true
					}
					// A zero-transit tight cycle is impossible after
					// checkInput, so this cannot happen; keep searching.
					continue
				case white:
					color[w] = gray
					onPath = append(onPath, id)
					stack = append(stack, dfsFrame{v: w})
					advanced = true
				}
				if advanced {
					break
				}
			}
			if advanced {
				continue
			}
			color[f.v] = black
			stack = stack[:len(stack)-1]
			if len(onPath) > 0 {
				onPath = onPath[:len(onPath)-1]
			}
		}
	}
	return nil, false
}
