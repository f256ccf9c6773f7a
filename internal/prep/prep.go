// Package prep implements the graph kernelization pipeline that runs ahead
// of every cycle-mean / cycle-ratio solver: a sequence of exact, invertible
// reductions that shrink a strongly connected component before any solver
// iterates over it. Circuit-style workloads (the DAC'99 study's Table 4
// family) are dominated by trivially reducible structure — long
// combinational chains, self-loops, tiny components — so contracting them
// first is almost always cheaper than making the solver walk them.
//
// The reductions, each preserving λ*/ρ* exactly:
//
//  1. Self-loop extraction: a self-loop is a cycle of length one; its exact
//     mean (or ratio) is recorded as a closed-form candidate and the loop is
//     removed from the working graph.
//  2. Chain contraction: an interior node with in-degree = out-degree = 1
//     lies on every cycle through either of its arcs, so the two arcs are
//     spliced into one, accumulating weight and denominator (arc count for
//     the mean problem, transit time for the ratio problem). A splice that
//     closes on itself is a cycle and becomes a candidate instead of a
//     kernel self-loop.
//  3. Tiny-component closed forms: a kernel of ≤ 2 nodes is solved by direct
//     enumeration (after reductions 1–2 its only cycles are two-arc pairs).
//  4. Bound sharpening: every cycle's value is a weighted mediant of its
//     arcs' per-arc values w/t, so min and max arc value bound λ*; the
//     driver feeds the bounds into Lawler's binary search and uses the lower
//     bound for cross-SCC pruning.
//
// Every reduction carries an expansion map (Kernel.ArcPaths) so critical
// cycles are reported in original-graph arc IDs; Kernel.ExpandCycle inverts
// the pipeline exactly, with no float involved anywhere (all candidate
// values are exact rationals from internal/numeric).
//
// The mean problem contracts onto ratio machinery: a contracted kernel arc
// carries t = number of original arcs it replaces, and a kernel cycle's
// value Σw/Σt equals the original cycle's mean exactly. The kernelized mean
// driver solves such kernels with the ratio form of core's Howard.
package prep

import (
	"errors"
	"time"

	"repro/internal/graph"
	"repro/internal/numeric"
	"repro/internal/obs"
)

// Mode selects which objective the kernel must preserve.
type Mode int

const (
	// Mean preserves the minimum cycle mean w(C)/|C|: kernel arc
	// denominators count the original arcs a kernel arc replaces.
	Mean Mode = iota
	// Ratio preserves the minimum cost-to-time ratio w(C)/t(C): kernel arc
	// denominators accumulate transit times.
	Ratio
)

// ErrUnsupported is reported through Kernel.Err when the input falls outside
// what the reductions can handle exactly (negative transit times, or a
// non-positive-denominator cycle in Ratio mode); callers must fall back to
// an unkernelized solve, which will diagnose the input properly.
var ErrUnsupported = errors.New("prep: input unsupported by kernelization")

// Kernel is the reduced form of one strongly connected cyclic graph together
// with everything needed to map results back to the input.
type Kernel struct {
	// G is the kernel graph. Arc weights are accumulated original weights
	// and arc transit times hold the accumulated denominator (arc count in
	// Mean mode, transit in Ratio mode). G has no self-loops. When Solved
	// is true G is empty and no solver run is needed.
	G *graph.Graph

	// NodeMap maps kernel node i to its original node ID.
	NodeMap []graph.NodeID

	// Contracted reports whether any chain contraction occurred, i.e.
	// whether some kernel arc replaces more than one original arc. A
	// contracted Mean-mode kernel must be solved as a ratio instance
	// (core's Howard in ratio form); an uncontracted one can go to any mean
	// solver.
	Contracted bool

	// Solved reports that the reductions solved the component outright
	// (everything collapsed into closed-form candidates); Candidate* hold
	// the answer.
	Solved bool

	// HasCandidate reports whether a closed-form candidate cycle was found
	// (self-loop, contraction-closed cycle, or tiny-component enumeration).
	// The final answer is the minimum of CandidateValue and the kernel
	// solver's result.
	HasCandidate   bool
	CandidateValue numeric.Rat

	// Lower and Upper bound the component's λ*/ρ* (min/max over kernel arc
	// values w/t and the candidate value). Valid only when HasBounds is
	// true; Ratio-mode kernels with zero-transit arcs have no arc-local
	// bound and report HasBounds false.
	Lower, Upper numeric.Rat
	HasBounds    bool

	// OrigNodes and OrigArcs record the input size for reduction-ratio
	// reporting.
	OrigNodes, OrigArcs int

	// Err is non-nil when kernelization could not be applied exactly
	// (ErrUnsupported); all other fields except Orig* are then meaningless
	// and the caller must solve the original graph directly.
	Err error

	// ArcPaths maps each kernel arc ID to the original arcs it replaces, in
	// path order. nil when identity (kernel arc IDs equal original IDs).
	ArcPaths [][]graph.ArcID

	// identity is set when no reduction changed the graph, in which case G
	// aliases the input and expansion is the identity.
	identity bool

	candidate []graph.ArcID // best closed-form cycle, in original arc IDs
}

// CandidateCycle returns the closed-form candidate cycle in original arc
// IDs, or nil when HasCandidate is false.
func (k *Kernel) CandidateCycle() []graph.ArcID {
	if !k.HasCandidate {
		return nil
	}
	out := make([]graph.ArcID, len(k.candidate))
	copy(out, k.candidate)
	return out
}

// ExpandCycle maps a cycle of kernel arc IDs back to original arc IDs by
// concatenating each kernel arc's expansion path. The result is a valid
// closed walk of the original graph whose value (mean or ratio, per Mode)
// equals the kernel cycle's value exactly.
func (k *Kernel) ExpandCycle(cycle []graph.ArcID) []graph.ArcID {
	if k.identity || k.ArcPaths == nil {
		out := make([]graph.ArcID, len(cycle))
		copy(out, cycle)
		return out
	}
	total := 0
	for _, id := range cycle {
		total += len(k.ArcPaths[id])
	}
	out := make([]graph.ArcID, 0, total)
	for _, id := range cycle {
		out = append(out, k.ArcPaths[id]...)
	}
	return out
}

// Stats is a flat, copyable summary of one kernelization outcome, shaped for
// observability reporting (internal/obs KernelEvent) and for tests that
// assert on reduction behavior without poking at Kernel internals.
type Stats struct {
	// OrigNodes/OrigArcs and Nodes/Arcs are the component's size before and
	// after reduction; Nodes and Arcs are zero when Solved or Unsupported.
	OrigNodes, OrigArcs int
	Nodes, Arcs         int
	// Contracted, Solved, HasCandidate, HasBounds mirror the Kernel fields.
	Contracted, Solved, HasCandidate, HasBounds bool
	// Unsupported reports Kernel.Err != nil (the caller solves the raw
	// component instead).
	Unsupported bool
}

// TraceEvent shapes the kernelization outcome as an observability event for
// the given component index; the mean and ratio drivers emit it through
// Options.Tracer right after Kernelize.
func (k *Kernel) TraceEvent(comp int) obs.KernelEvent {
	st := k.Stats()
	return obs.KernelEvent{
		Component: comp,
		OrigNodes: st.OrigNodes, OrigArcs: st.OrigArcs,
		Nodes: st.Nodes, Arcs: st.Arcs,
		Contracted: st.Contracted, Solved: st.Solved,
		HasCandidate: st.HasCandidate, HasBounds: st.HasBounds,
		Unsupported: st.Unsupported,
	}
}

// Stats summarizes the kernelization outcome.
func (k *Kernel) Stats() Stats {
	st := Stats{
		OrigNodes:    k.OrigNodes,
		OrigArcs:     k.OrigArcs,
		Contracted:   k.Contracted,
		Solved:       k.Solved,
		HasCandidate: k.HasCandidate,
		HasBounds:    k.HasBounds,
		Unsupported:  k.Err != nil,
	}
	if k.G != nil && k.Err == nil {
		st.Nodes = k.G.NumNodes()
		st.Arcs = k.G.NumArcs()
	}
	return st
}

// NodeReduction returns the fraction of nodes removed by kernelization
// (0 = nothing removed, 1 = everything).
func (k *Kernel) NodeReduction() float64 {
	if k.OrigNodes == 0 {
		return 0
	}
	kn := 0
	if k.G != nil {
		kn = k.G.NumNodes()
	}
	return 1 - float64(kn)/float64(k.OrigNodes)
}

// ArcReduction returns the fraction of arcs removed by kernelization.
func (k *Kernel) ArcReduction() float64 {
	if k.OrigArcs == 0 {
		return 0
	}
	km := 0
	if k.G != nil {
		km = k.G.NumArcs()
	}
	return 1 - float64(km)/float64(k.OrigArcs)
}

// tinyPairLimit caps the two-node closed-form enumeration: beyond this many
// arc pairs the kernel is left to the solver instead (parallel-arc blowup).
const tinyPairLimit = 4096

// Kernelize reduces a strongly connected cyclic graph g. It never fails on
// Mean-mode input; Ratio-mode input with negative transit times or a
// detected non-positive-denominator cycle sets Kernel.Err (the caller then
// solves the original graph, which reports the proper error).
//
// Kernelize does not verify strong connectivity; feeding it a general graph
// yields a kernel whose cycles still correspond exactly to g's cycles, but
// the tiny-component closed forms and bounds assume every kernel arc lies on
// some cycle, which only strong connectivity guarantees.
func Kernelize(g *graph.Graph, mode Mode) *Kernel {
	return new(Scratch).Kernelize(g, mode)
}

// warc is one arc of the working set and a node of the contraction DAG, held
// inline in the working slice itself: a leaf (r < 0) stands for the single
// original arc l, a merge node concatenates children l then r. Keeping the
// DAG in the slice — instead of a heap-allocated path tree per arc — keeps
// kernelization's allocation count independent of the graph, which matters
// because it runs ahead of every solve. t is the value denominator per Mode.
type warc struct {
	from, to graph.NodeID
	w, t     int64
	l, r     int32 // children; r < 0 marks a leaf and l is the original arc ID
	plen     int32 // original arcs under this node
	dead     bool
}

// Scratch holds Kernelize's working arrays so that one solve can reuse them
// across its components: the working arc set, the incidence lists and their
// backing, the degrees, the removed flags, the contraction queue and the
// node renumbering. The zero value is ready to use. A Scratch serves one
// Kernelize call at a time, and the Kernel it returns shares no memory
// with it.
//
// The mean and ratio drivers keep one Scratch per worker for the length of
// one solve rather than in a package-level pool: a pooled Scratch survives
// garbage collection between solves and stays in the live heap.
type Scratch struct {
	warcs           []warc
	ins, outs       [][]int32
	inBack, outBack []int32
	indeg, outdeg   []int32
	removed         []bool
	queue           []graph.NodeID
	nodeOf          []graph.NodeID
	fstack          []int32
}

// resize returns buf with length n, reallocating only when its capacity is
// short. The contents are not cleared.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// flatten appends the original arcs under warcs[root] to dst in path order,
// iteratively so deep chains cannot overflow the goroutine stack.
func (s *Scratch) flatten(warcs []warc, root int32, dst []graph.ArcID) []graph.ArcID {
	stack := append(s.fstack[:0], root)
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for warcs[i].r >= 0 {
			stack = append(stack, warcs[i].r)
			i = warcs[i].l
		}
		dst = append(dst, graph.ArcID(warcs[i].l))
	}
	s.fstack = stack
	return dst
}

// KernelizeTraced is s.Kernelize followed by component comp's KernelEvent
// on tr. The event's Duration is measured only when tr is enabled, so the
// untraced path reads no clock.
func (s *Scratch) KernelizeTraced(g *graph.Graph, mode Mode, tr *obs.Trace, comp int) *Kernel {
	if !tr.Enabled() {
		return s.Kernelize(g, mode)
	}
	start := time.Now()
	k := s.Kernelize(g, mode)
	ev := k.TraceEvent(comp)
	ev.Duration = time.Since(start)
	tr.Kernel(ev)
	return k
}

// Kernelize is the package-level Kernelize on s's working arrays.
func (s *Scratch) Kernelize(g *graph.Graph, mode Mode) *Kernel {
	n, m := g.NumNodes(), g.NumArcs()
	k := &Kernel{OrigNodes: n, OrigArcs: m}
	arcs := g.Arcs()

	// Capacity covers every original arc plus one merge per contracted node
	// plus dead candidate markers, so the slice never regrows mid-reduction.
	if cap(s.warcs) < m+n {
		s.warcs = make([]warc, 0, m+n)
	}
	warcs := s.warcs[:0]
	candIdx := int32(-1) // warc index of the best closed-form cycle

	// Incidence lists in one backing array each: per-node capacity equals the
	// initial degree, which contraction never exceeds (each splice removes
	// one incident arc before adding one).
	ins, outs := resize(s.ins, n), resize(s.outs, n)
	indeg, outdeg := resize(s.indeg, n), resize(s.outdeg, n)
	s.ins, s.outs, s.indeg, s.outdeg = ins, outs, indeg, outdeg
	clear(indeg)
	clear(outdeg)
	for _, a := range arcs {
		if a.From == a.To {
			continue
		}
		outdeg[a.From]++
		indeg[a.To]++
	}
	{
		inTot, outTot := 0, 0
		for v := 0; v < n; v++ {
			inTot += int(indeg[v])
			outTot += int(outdeg[v])
		}
		inBack, outBack := resize(s.inBack, inTot), resize(s.outBack, outTot)
		s.inBack, s.outBack = inBack, outBack
		inOff, outOff := 0, 0
		for v := 0; v < n; v++ {
			ins[v] = inBack[inOff : inOff : inOff+int(indeg[v])]
			outs[v] = outBack[outOff : outOff : outOff+int(outdeg[v])]
			inOff += int(indeg[v])
			outOff += int(outdeg[v])
		}
	}

	reduced := false // any reduction applied?
	addCandidate := func(w, t int64) (improved, ok bool) {
		if t <= 0 {
			// Only reachable in Ratio mode: a cycle with non-positive total
			// transit has no defined ratio. Let the raw solver diagnose it.
			k.Err = ErrUnsupported
			return false, false
		}
		val := numeric.NewRat(w, t)
		if !k.HasCandidate || val.Less(k.CandidateValue) {
			k.CandidateValue = val
			k.HasCandidate = true
			return true, true
		}
		return false, true
	}

	// Reduction 1: self-loop extraction.
	for id, a := range arcs {
		t := int64(1)
		if mode == Ratio {
			if a.Transit < 0 {
				k.Err = ErrUnsupported
				return k
			}
			t = a.Transit
		}
		if a.From == a.To {
			reduced = true
			imp, ok := addCandidate(a.Weight, t)
			if !ok {
				return k
			}
			if imp {
				candIdx = int32(len(warcs))
				warcs = append(warcs, warc{l: int32(id), r: -1, plen: 1, dead: true})
			}
			continue
		}
		wi := int32(len(warcs))
		warcs = append(warcs, warc{from: a.From, to: a.To, w: a.Weight, t: t, l: int32(id), r: -1, plen: 1})
		outs[a.From] = append(outs[a.From], wi)
		ins[a.To] = append(ins[a.To], wi)
	}

	// Reduction 2: chain contraction. removeFrom is a swap-delete on the
	// small per-node incidence lists.
	removeFrom := func(list []int32, id int32) []int32 {
		for i, v := range list {
			if v == id {
				list[i] = list[len(list)-1]
				return list[:len(list)-1]
			}
		}
		return list
	}
	removed := resize(s.removed, n)
	s.removed = removed
	clear(removed)
	if cap(s.queue) < n {
		s.queue = make([]graph.NodeID, 0, n)
	}
	queue := s.queue[:0]
	for v := 0; v < n; v++ {
		if len(ins[v]) == 1 && len(outs[v]) == 1 {
			queue = append(queue, graph.NodeID(v))
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if removed[v] || len(ins[v]) != 1 || len(outs[v]) != 1 {
			continue
		}
		ain, aout := ins[v][0], outs[v][0]
		// No self-loops exist in the working set, so ain ≠ aout and the
		// spliced arc's endpoints differ from v.
		u, w := warcs[ain].from, warcs[aout].to
		merged := warc{
			from: u, to: w,
			w: warcs[ain].w + warcs[aout].w,
			t: warcs[ain].t + warcs[aout].t,
			l: ain, r: aout,
			plen: warcs[ain].plen + warcs[aout].plen,
		}
		warcs[ain].dead = true
		warcs[aout].dead = true
		ins[v], outs[v] = nil, nil
		removed[v] = true
		reduced = true
		outs[u] = removeFrom(outs[u], ain)
		ins[w] = removeFrom(ins[w], aout)
		if u == w {
			// The splice closed a cycle: record it, don't re-add a loop.
			imp, ok := addCandidate(merged.w, merged.t)
			if !ok {
				return k
			}
			if imp {
				merged.dead = true
				candIdx = int32(len(warcs))
				warcs = append(warcs, merged)
			}
			if !removed[u] && len(ins[u]) == 1 && len(outs[u]) == 1 {
				queue = append(queue, u)
			}
			continue
		}
		wi := int32(len(warcs))
		warcs = append(warcs, merged)
		outs[u] = append(outs[u], wi)
		ins[w] = append(ins[w], wi)
	}
	s.queue = queue

	if !reduced {
		// Identity: nothing to map, reuse the input graph as the kernel.
		// The tiny-component closed form still applies (a two-node graph
		// with parallel arcs both ways reduces nothing yet is enumerable).
		k.G = g
		k.identity = true
		if n == 2 && m > 0 {
			k.solveTwoNode(mode)
		}
		k.computeBounds(mode)
		return k
	}

	// Assemble the kernel graph over the surviving nodes.
	nodeOf := resize(s.nodeOf, n) // original -> kernel, -1 if dropped
	s.nodeOf = nodeOf
	kn := 0 // the incidence lists hold exactly the live arcs
	for v := range nodeOf {
		nodeOf[v] = -1
		if len(ins[v]) > 0 || len(outs[v]) > 0 {
			kn++
		}
	}
	kNodes := make([]graph.NodeID, 0, kn)
	alive, pathTot := 0, 0
	for i := range warcs {
		if !warcs[i].dead {
			alive++
			pathTot += int(warcs[i].plen)
		}
	}
	kArcs := make([]graph.Arc, 0, alive)
	kPaths := make([][]graph.ArcID, 0, alive)
	// All expansion paths share one exactly-sized backing array; each kernel
	// arc's path is a full-capacity subslice of it.
	backing := make([]graph.ArcID, 0, pathTot)
	for i := range warcs {
		a := &warcs[i]
		if a.dead {
			continue
		}
		for _, end := range [2]graph.NodeID{a.from, a.to} {
			if nodeOf[end] < 0 {
				nodeOf[end] = graph.NodeID(len(kNodes))
				kNodes = append(kNodes, end)
			}
		}
		kArcs = append(kArcs, graph.Arc{
			From: nodeOf[a.from], To: nodeOf[a.to],
			Weight: a.w, Transit: a.t,
		})
		start := len(backing)
		backing = s.flatten(warcs, int32(i), backing)
		kPaths = append(kPaths, backing[start:len(backing):len(backing)])
		if a.plen > 1 {
			k.Contracted = true
		}
	}
	k.G = graph.FromArcs(len(kNodes), kArcs)
	k.NodeMap = kNodes
	k.ArcPaths = kPaths
	if candIdx >= 0 {
		k.candidate = s.flatten(warcs, candIdx, make([]graph.ArcID, 0, warcs[candIdx].plen))
	}

	// Reduction 3: tiny-component closed forms.
	switch {
	case len(kNodes) == 0:
		k.Solved = true
	case len(kNodes) == 2 && len(kArcs) > 0:
		k.solveTwoNode(mode)
	}
	k.computeBounds(mode)
	return k
}

// solveTwoNode enumerates all two-arc cycles of a two-node kernel. After
// self-loop extraction and chain contraction every cycle of such a kernel is
// a forward arc plus a backward arc, so the minimum over all pairs is exact.
func (k *Kernel) solveTwoNode(mode Mode) {
	var fwd, bwd []graph.ArcID
	for id := graph.ArcID(0); int(id) < k.G.NumArcs(); id++ {
		if k.G.Arc(id).From == 0 {
			fwd = append(fwd, id)
		} else {
			bwd = append(bwd, id)
		}
	}
	if len(fwd) == 0 || len(bwd) == 0 {
		// No cycle through the pair (cannot happen for a strongly connected
		// component, but stay safe): leave Solved unset.
		return
	}
	if len(fwd)*len(bwd) > tinyPairLimit {
		return // leave the multigraph blowup to the solver
	}
	// Identity kernels alias the input: each arc maps to itself and, in Mean
	// mode, the denominator is the arc count (1), not the Transit field.
	pathOf := func(id graph.ArcID) []graph.ArcID {
		if k.ArcPaths == nil {
			return []graph.ArcID{id}
		}
		return k.ArcPaths[id]
	}
	denom := func(a graph.Arc) int64 {
		if k.identity && mode == Mean {
			return 1
		}
		return a.Transit
	}
	for _, f := range fwd {
		af := k.G.Arc(f)
		for _, b := range bwd {
			ab := k.G.Arc(b)
			t := denom(af) + denom(ab)
			if t <= 0 {
				k.Err = ErrUnsupported
				return
			}
			val := numeric.NewRat(af.Weight+ab.Weight, t)
			if !k.HasCandidate || val.Less(k.CandidateValue) {
				k.CandidateValue = val
				pf, pb := pathOf(f), pathOf(b)
				k.candidate = append(append(make([]graph.ArcID, 0, len(pf)+len(pb)), pf...), pb...)
				k.HasCandidate = true
			}
		}
	}
	k.Solved = true
}

// computeBounds derives Lower/Upper from kernel arc values and the
// candidate: every cycle value Σw/Σt is a weighted mediant of its arcs'
// w/t, so it lies between the extreme arc values; and the candidate is an
// achieved cycle value, so λ* ≤ candidate — it caps Upper, never raises it.
func (k *Kernel) computeBounds(mode Mode) {
	if k.Err != nil {
		return
	}
	have := false
	if k.G != nil && !k.Solved {
		for _, a := range k.G.Arcs() {
			t := a.Transit
			if k.identity && mode == Mean {
				t = 1 // identity kernels alias the input; mean denominators are arc counts
			}
			if t <= 0 {
				// A zero-transit arc contributes weight but no denominator;
				// its presence can push a cycle's ratio arbitrarily far, so
				// no arc-local bound holds. Disable bounds conservatively.
				have = false
				break
			}
			val := numeric.NewRat(a.Weight, t)
			if !have {
				k.Lower, k.Upper = val, val
				have = true
				continue
			}
			if val.Less(k.Lower) {
				k.Lower = val
			}
			if k.Upper.Less(val) {
				k.Upper = val
			}
		}
	} else if k.Solved && k.HasCandidate {
		k.Lower, k.Upper = k.CandidateValue, k.CandidateValue
		have = true
	}
	if have && k.HasCandidate {
		c := k.CandidateValue
		if c.Less(k.Lower) {
			k.Lower = c
		}
		if c.Less(k.Upper) {
			k.Upper = c
		}
	}
	if !have {
		k.Lower, k.Upper = numeric.Rat{}, numeric.Rat{}
		k.HasBounds = false
		return
	}
	k.HasBounds = true
}
