// Package prep implements the graph kernelization pipeline that runs ahead
// of every cycle-mean / cycle-ratio solver: a sequence of exact, invertible
// reductions that shrink the input before any solver iterates over it.
// Circuit-style workloads (the DAC'99 study's Table 4 family) are dominated
// by trivially reducible structure — long combinational chains, self-loops,
// tiny components — so contracting them first is almost always cheaper than
// making the solver walk them.
//
// Kernelize reduces one strongly connected component. Contract runs its
// chain walk over a whole graph first and splits the contracted graph into
// the cyclic components graph.CyclicComponents would find, so that the
// reductions run on small components and no component is copied whole.
// The reductions, each preserving λ*/ρ* exactly:
//
//  1. Self-loop extraction: a self-loop is a cycle of length one; its exact
//     mean (or ratio) is recorded as a closed-form candidate and the loop is
//     removed from the working graph.
//  2. Chain contraction: a chain node, with in-degree = out-degree = 1, lies
//     on every cycle through either of its arcs. One walk from each out-arc
//     of a node that is not a chain node follows chain nodes to the next
//     node that is not one and emits a single arc, accumulating weight and
//     denominator (arc count for the mean problem, transit time for the
//     ratio problem). A walk that returns to its start is a cycle and
//     becomes a candidate; a node whose cycles close until it has one arc
//     in and one out is then contracted too.
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
	"cmp"
	"errors"
	"slices"
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
	if k.ArcPaths == nil {
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

// Kernelize reduces a strongly connected cyclic graph g. Ratio-mode input
// with negative transit times or a detected non-positive-denominator cycle,
// and input whose weight or transit sums overflow int64, set Kernel.Err (the
// caller then solves the original graph, which reports the proper error).
//
// Kernelize does not verify strong connectivity; feeding it a general graph
// yields a kernel whose cycles still correspond exactly to g's cycles, but
// the tiny-component closed forms and bounds assume every kernel arc lies on
// some cycle, which only strong connectivity guarantees.
func Kernelize(g *graph.Graph, mode Mode) *Kernel {
	return new(Scratch).Kernelize(g, mode)
}

// Scratch holds the reductions' working arrays so that one solve can reuse
// them across its components: the degrees, the splice keys, the walk's
// output, the loop list and the renumbering. The zero value is ready to
// use. A Scratch serves one Kernelize call at a time, and the Kernel it
// returns shares no memory with it.
//
// The mean and ratio drivers keep one Scratch per worker for the length of
// one solve rather than in a package-level pool: a pooled Scratch survives
// garbage collection between solves and stays in the live heap.
type Scratch struct {
	indeg, outdeg []int32
	key           []int64
	arcs          []graph.Arc
	links, meta   []link
	state         []uint8
	loops         []int32
	next, into    []int32
	tail, slot    []int32
	heads         []int32
	threads       []int32
	nodeOf        []graph.NodeID
}

// resize returns buf with length n, reallocating only when its capacity is
// short. The contents are not cleared.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// KernelizeTraced is s.Kernelize followed by component comp's KernelEvent
// on tr. The event's Duration is measured only when tr is enabled, so the
// untraced path reads no clock.
func (s *Scratch) KernelizeTraced(g *graph.Graph, mode Mode, tr *obs.Trace, comp int) *Kernel {
	if !tr.Enabled() {
		return s.Kernelize(g, mode)
	}
	start := time.Now()
	return emit(tr, comp, start, s.Kernelize(g, mode))
}

// emit reports k on tr as component comp's KernelEvent, timed from start.
func emit(tr *obs.Trace, comp int, start time.Time, k *Kernel) *Kernel {
	ev := k.TraceEvent(comp)
	ev.Duration = time.Since(start)
	tr.Kernel(ev)
	return k
}

// Kernelize is the package-level Kernelize on s's working arrays.
func (s *Scratch) Kernelize(g *graph.Graph, mode Mode) *Kernel {
	return s.reduce(g, nil, nil, g, g.NumNodes(), g.NumArcs(), mode)
}

// link is what a contracted arc carries besides its graph.Arc, whose Weight
// and Transit hold the sums along its path (Transit counts the arcs in Mean
// mode).
type link struct {
	path []graph.ArcID // the original arcs, in path order
	// last and second are the splice keys of the latest and second-latest
	// contracted node inside the path (0: none), and lastNode is the latest
	// one's original ID.
	last, second int64
	lastNode     graph.NodeID
	src          int32 // the input arc a path of one input arc came from
	bad          bool  // a sum overflowed, or a Ratio-mode transit is negative
}

// spliceKey orders the contracted nodes, and so the contracted kernel arcs,
// which are listed by their last contracted node: chain nodes go in
// descending node order, and a node that becomes a chain node only when the
// cycles through it close goes right after the last of them (that cycle's
// key + 1). A larger key is later. n bounds the node IDs. This is the order
// of a node-at-a-time contraction that pops chain nodes from a stack, which
// the tests keep as the reference.
func spliceKey(n int, v graph.NodeID) int64 { return int64(n-int(v)) << 32 }

// note adds contracted node v, spliced at key, to l's interior.
func (l *link) note(key int64, v graph.NodeID) {
	switch {
	case key > l.last:
		l.second, l.last, l.lastNode = l.last, key, v
	case key > l.second:
		l.second = key
	}
}

// join adds the interior of the arc b stands for to l's interior.
func (l *link) join(b *link) {
	if b.last > l.last {
		l.second, l.last, l.lastNode = max(l.last, b.second), b.last, b.lastNode
	} else {
		l.second = max(l.second, b.last)
	}
}

// add returns a+b and whether it did not overflow.
func add(a, b int64) (int64, bool) {
	s := a + b
	return s, (s > a) == (b > 0)
}

// walker contracts the chains of g, whose arcs are original arcs (meta nil)
// or contracted arcs that meta describes. key[v] > 0 marks a chain node and
// gives its splice key, key[v] < 0 one the walk has passed, and ids maps g's
// nodes to their original IDs (nil: the identity).
type walker struct {
	g    *graph.Graph
	meta []link
	key  []int64
	ids  []graph.NodeID
	mode Mode
	// loops makes original self-loops arcs like any other, as they are in a
	// whole-graph contraction; otherwise the walk leaves them out, because
	// self-loop extraction has taken them.
	loops bool
}

func (w *walker) id(v graph.NodeID) graph.NodeID {
	if w.ids == nil {
		return v
	}
	return w.ids[v]
}

// skip reports an original self-loop the walk leaves out.
func (w *walker) skip(e graph.ArcID) bool {
	if w.loops {
		return false
	}
	a := w.g.Arc(e)
	return a.From == a.To && (w.meta == nil || w.meta[e].last == 0)
}

// transit is arc a's denominator: its arc count in Mean mode.
func (w *walker) transit(a graph.Arc) int64 {
	if w.meta == nil && w.mode == Mean {
		return 1
	}
	return a.Transit
}

// link returns arc e's link; an original arc's has no path yet.
func (w *walker) link(e graph.ArcID) link {
	if w.meta != nil {
		return w.meta[e]
	}
	return link{src: e, bad: w.mode == Ratio && w.g.Arc(e).Transit < 0}
}

func (w *walker) appendPath(dst []graph.ArcID, e graph.ArcID) []graph.ArcID {
	if w.meta == nil {
		return append(dst, e)
	}
	return append(dst, w.meta[e].path...)
}

// out returns chain node v's one arc out.
func (w *walker) out(v graph.NodeID) graph.ArcID {
	for _, e := range w.g.OutArcs(v) {
		if !w.skip(e) {
			return e
		}
	}
	panic("prep: chain node without an arc out")
}

// walk emits one arc per maximal chain, appended to arcs and links. It
// starts at each out-arc of a node that is not a chain node, in node order
// and then g's out-arc order, and follows chain nodes to the next node that
// is not one; a walk that returns to its start is a loop. Chain nodes no
// walk reaches lie on cycles of chain nodes alone, and each such cycle is
// emitted as a loop at its smallest node. That node's key stays as it was,
// so that the caller can tell the cycle from a loop at a node that is not a
// chain node; the walk marks every other chain node passed.
func (w *walker) walk(arcs []graph.Arc, links []link) ([]graph.Arc, []link) {
	n := w.g.NumNodes()
	// Each path that is not one input arc with a path of its own is written
	// once into one backing array, sized for every arc that can be on one.
	size := w.g.NumArcs()
	if w.meta != nil {
		size = 0
		for e, a := range w.g.Arcs() {
			if !w.skip(graph.ArcID(e)) && (w.key[a.From] > 0 || w.key[a.To] > 0) {
				size += len(w.meta[e].path)
			}
		}
	}
	backing := make([]graph.ArcID, 0, size)
	for u := graph.NodeID(0); int(u) < n; u++ {
		if w.key[u] != 0 {
			continue // a chain node, or one a walk passed
		}
		for _, e := range w.g.OutArcs(u) {
			if w.skip(e) {
				continue
			}
			a, l := w.chain(u, e, &backing)
			arcs, links = append(arcs, a), append(links, l)
		}
	}
	for v := graph.NodeID(0); int(v) < n; v++ {
		if w.key[v] > 0 {
			a, l := w.chain(v, w.out(v), &backing)
			arcs, links = append(arcs, a), append(links, l)
		}
	}
	return arcs, links
}

// chain follows the path that leaves u by arc e through chain nodes, up to
// the next node that is not a chain node or back to u, and returns the arc
// and link that replace it.
func (w *walker) chain(u graph.NodeID, e graph.ArcID, backing *[]graph.ArcID) (graph.Arc, link) {
	a := w.g.Arc(e)
	sum := graph.Arc{From: u, To: a.To, Weight: a.Weight, Transit: w.transit(a)}
	l := w.link(e)
	start := len(*backing)
	v := a.To
	if w.meta != nil && (w.key[v] <= 0 || v == u) {
		return sum, l // one input arc: its path is its own
	}
	*backing = w.appendPath(*backing, e)
	ok := true
	for w.key[v] > 0 && v != u {
		l.note(w.key[v], w.id(v))
		w.key[v] = -1
		e = w.out(v)
		a = w.g.Arc(e)
		var okW, okT bool
		sum.Weight, okW = add(sum.Weight, a.Weight)
		sum.Transit, okT = add(sum.Transit, w.transit(a))
		ok = ok && okW && okT
		if w.meta != nil {
			l.join(&w.meta[e])
			ok = ok && !w.meta[e].bad
		} else if w.mode == Ratio && a.Transit < 0 {
			ok = false
		}
		*backing = w.appendPath(*backing, e)
		v = a.To
	}
	sum.To = v
	l.bad = l.bad || !ok
	l.path = (*backing)[start:len(*backing):len(*backing)]
	return sum, l
}

// closed is the best closed-form cycle found so far: its value, the key of
// the splice that closed it (0 for a self-loop; self-loops come first), the
// arc it is — a walk's arc, or an input self-loop — and the original node
// it is reported from.
type closed struct {
	val    numeric.Rat
	key    int64
	arc    int32
	self   bool
	anchor graph.NodeID
	have   bool
}

// offer records a cycle of weight w and denominator t if it beats the best
// so far; of equal values the one closed first wins. A cycle without a
// positive denominator (a Ratio-mode cycle of zero-transit arcs) has no
// value: offer sets k.Err and reports false.
func (c *closed) offer(k *Kernel, w, t, key int64, arc int32, self bool, anchor graph.NodeID) bool {
	if t <= 0 {
		k.Err = ErrUnsupported
		return false
	}
	val := numeric.NewRat(w, t)
	if !c.have || val.Less(c.val) || (val.Equal(c.val) && key < c.key) {
		*c = closed{val: val, key: key, arc: arc, self: self, anchor: anchor, have: true}
	}
	return true
}

// cycle returns path rotated to start at the anchor.
func (c *closed) cycle(orig *graph.Graph, path []graph.ArcID) []graph.ArcID {
	for i, e := range path {
		if orig.Arc(e).From == c.anchor {
			if i == 0 {
				return path
			}
			return append(append(make([]graph.ArcID, 0, len(path)), path[i:]...), path[:i]...)
		}
	}
	return path
}

// States of the walk's arcs while their cycles close.
const (
	live     = iota // in the kernel, unless spliced into another arc later
	pending         // a loop waiting to close
	done            // a cycle, offered as a candidate
	absorbed        // spliced onto the end of the arc into its tail
)

// heap is a binary min-heap of the walk's loop arcs by splice key.
type heap struct {
	items []int32
	links []link
}

func (h *heap) less(i, j int) bool { return h.links[h.items[i]].last < h.links[h.items[j]].last }

func (h *heap) push(x int32) {
	h.items = append(h.items, x)
	for i := len(h.items) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.items[i], h.items[p] = h.items[p], h.items[i]
		i = p
	}
}

func (h *heap) pop() int32 {
	top, last := h.items[0], len(h.items)-1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && h.less(c+1, c) {
			c++
		}
		if !h.less(c, i) {
			break
		}
		h.items[i], h.items[c] = h.items[c], h.items[i]
		i = c
	}
	return top
}

// reduce runs reductions 1–4 on g. Its arcs are original arcs of orig (meta
// nil, and g is orig) or contracted arcs of orig that meta describes, in
// which case ids maps g's nodes to orig's. The kernel reports origNodes and
// origArcs as the size of the component it reduces.
func (s *Scratch) reduce(g *graph.Graph, meta []link, ids []graph.NodeID, orig *graph.Graph, origNodes, origArcs int, mode Mode) *Kernel {
	k := &Kernel{OrigNodes: origNodes, OrigArcs: origArcs}
	n := g.NumNodes()
	w := walker{g: g, meta: meta, ids: ids, mode: mode}
	var best closed

	// Reduction 1: self-loop extraction. It also finds the input the
	// reductions cannot take, and the degrees that mark the chain nodes.
	indeg, outdeg := resize(s.indeg, n), resize(s.outdeg, n)
	s.indeg, s.outdeg = indeg, outdeg
	clear(indeg)
	clear(outdeg)
	reduced := false // any reduction applied?
	for e, a := range g.Arcs() {
		id := graph.ArcID(e)
		l := w.link(id)
		if l.bad {
			k.Err = ErrUnsupported
			return k
		}
		if w.skip(id) {
			reduced = true
			if !best.offer(k, a.Weight, w.transit(a), 0, id, true, w.id(a.From)) {
				return k
			}
			continue
		}
		reduced = reduced || l.last != 0
		outdeg[a.From]++
		indeg[a.To]++
	}
	key := resize(s.key, n)
	s.key, w.key = key, key
	walks := 1 // one per arc out of a node that is not a chain node, and a spare for a pure cycle
	for v := range key {
		key[v] = 0
		if indeg[v] == 1 && outdeg[v] == 1 {
			key[v] = spliceKey(orig.NumNodes(), w.id(graph.NodeID(v)))
			reduced = true
		} else {
			walks += int(outdeg[v])
		}
	}

	if !reduced {
		// Identity: nothing to map, reuse the input graph as the kernel.
		// The tiny-component closed form still applies (a two-node graph
		// with parallel arcs both ways reduces nothing yet is enumerable).
		k.G = g
		k.identity = true
		if meta != nil {
			k.NodeMap = ids
			k.ArcPaths = make([][]graph.ArcID, len(meta))
			for i := range meta {
				k.ArcPaths[i] = meta[i].path
			}
		}
		if n == 2 && g.NumArcs() > 0 {
			k.solveTwoNode(mode)
		}
		k.computeBounds(mode)
		return k
	}

	// Reduction 2: chain contraction, one walk. An arc it emits from a node
	// back to itself is a cycle and becomes a candidate.
	if cap(s.arcs) < walks {
		s.arcs, s.links = make([]graph.Arc, 0, walks), make([]link, 0, walks)
	}
	arcs, links := w.walk(s.arcs[:0], s.links[:0])
	s.arcs, s.links = arcs, links
	state := resize(s.state, len(arcs))
	s.state = state
	loops := heap{items: s.loops[:0], links: links}
	for i, a := range arcs {
		l := &links[i]
		state[i] = live
		if l.bad {
			k.Err = ErrUnsupported
			return k
		}
		if a.From != a.To {
			continue
		}
		if v := a.From; key[v] > 0 {
			// A cycle of chain nodes closes when its second-latest node is
			// spliced, and runs from its latest one.
			l.note(key[v], w.id(v))
			state[i] = done
			if !best.offer(k, a.Weight, a.Transit, l.second, int32(i), false, l.lastNode) {
				return k
			}
			continue
		}
		state[i] = pending
		loops.push(int32(i))
	}
	var next []int32 // the arc spliced after each one, or -1
	if len(loops.items) > 0 {
		next = s.close(k, &w, &best, arcs, links, &loops)
		if k.Err != nil {
			return k
		}
	}
	s.loops = loops.items

	// Assemble the kernel: the arcs no node was contracted into, in input
	// order, then the contracted ones in the order of their last splice. A
	// kernel node's number is its first appearance in that list.
	slot := resize(s.slot, g.NumArcs())
	s.slot = slot
	for i := range slot {
		slot[i] = -1
	}
	order := s.loops[:0]
	size := 0
	for i := range links {
		switch {
		case state[i] != live:
			continue
		case links[i].last == 0:
			slot[links[i].src] = int32(i)
		default:
			order = append(order, int32(i))
		}
		size++
	}
	slices.SortFunc(order, func(x, y int32) int { return cmp.Compare(links[x].last, links[y].last) })
	s.loops = order
	nodeOf := resize(s.nodeOf, n) // working -> kernel, -1 if dropped
	s.nodeOf = nodeOf
	for v := range nodeOf {
		nodeOf[v] = -1
	}
	kArcs := make([]graph.Arc, 0, size)
	kPaths := make([][]graph.ArcID, 0, size)
	kn := 0
	take := func(i int32) {
		a := arcs[i]
		for _, end := range [2]graph.NodeID{a.From, a.To} {
			if nodeOf[end] < 0 {
				nodeOf[end] = graph.NodeID(kn)
				kn++
			}
		}
		kArcs = append(kArcs, graph.Arc{From: nodeOf[a.From], To: nodeOf[a.To], Weight: a.Weight, Transit: a.Transit})
		path := spliced(links, next, i)
		kPaths = append(kPaths, path)
		if len(path) > 1 {
			k.Contracted = true
		}
	}
	for _, i := range slot {
		if i >= 0 {
			take(i)
		}
	}
	for _, i := range order {
		take(i)
	}
	kNodes := make([]graph.NodeID, kn)
	for v, kv := range nodeOf {
		if kv >= 0 {
			kNodes[kv] = w.id(graph.NodeID(v))
		}
	}
	k.G = graph.FromArcs(kn, kArcs)
	k.NodeMap = kNodes
	k.ArcPaths = kPaths
	if best.have {
		k.HasCandidate, k.CandidateValue = true, best.val
		switch {
		case !best.self:
			k.candidate = best.cycle(orig, spliced(links, next, best.arc))
		case meta != nil:
			k.candidate = meta[best.arc].path
		default:
			k.candidate = []graph.ArcID{best.arc}
		}
	}

	// Reduction 3: tiny-component closed forms.
	switch {
	case kn == 0:
		k.Solved = true
	case kn == 2 && len(kArcs) > 0:
		k.solveTwoNode(mode)
	}
	k.computeBounds(mode)
	return k
}

// close closes the walk's loops in splice-key order; each is a candidate
// from the node it loops at. A node whose loops leave it one arc in and one
// out becomes a chain node right after the loop that closed last, and is
// spliced: the arc into it absorbs the arc out of it. That can make a new
// loop, or leave the node's last loop, which is then a cycle of chain nodes.
// close returns each arc's successor on its spliced path (-1: none).
func (s *Scratch) close(k *Kernel, w *walker, best *closed, arcs []graph.Arc, links []link, loops *heap) []int32 {
	m := len(arcs)
	state, indeg, outdeg := s.state, s.indeg, s.outdeg
	next, into, tail := resize(s.next, m), resize(s.into, m), resize(s.tail, m)
	s.next, s.into, s.tail = next, into, tail
	for i := range next {
		next[i], into[i], tail[i] = -1, int32(i), int32(i)
	}
	// root follows absorbed arcs to the arc that absorbed them.
	root := func(i int32) int32 {
		for into[i] != i {
			into[i] = into[into[i]]
			i = into[i]
		}
		return i
	}
	// Each node's arcs in and out, as lists threaded through the arcs.
	n := len(indeg)
	heads, threads := resize(s.heads, 2*n), resize(s.threads, 2*m)
	s.heads, s.threads = heads, threads
	inHead, outHead, inNext, outNext := heads[:n], heads[n:], threads[:m], threads[m:]
	for v := range heads {
		heads[v] = -1
	}
	for e, a := range arcs {
		inNext[e], inHead[a.To] = inHead[a.To], int32(e)
		outNext[e], outHead[a.From] = outHead[a.From], int32(e)
	}
	for len(loops.items) > 0 {
		i := loops.pop()
		if state[i] != pending {
			continue // closed already, as the last loop at its node
		}
		state[i] = done
		u := arcs[i].From
		if !best.offer(k, arcs[i].Weight, arcs[i].Transit, links[i].last, i, false, w.id(u)) {
			return nil
		}
		indeg[u]--
		outdeg[u]--
		if indeg[u] != 1 || outdeg[u] != 1 {
			continue
		}
		// u's one arc in: every arc that ended at u ends there still, or
		// was absorbed by one that does. Its one arc out left u from the
		// start: only splicing u could absorb it.
		in, out := int32(-1), int32(-1)
		for e := inHead[u]; e >= 0; e = inNext[e] {
			if r := root(e); state[r] == live || state[r] == pending {
				in = r
				break
			}
		}
		for e := outHead[u]; e >= 0; e = outNext[e] {
			if state[e] == live || state[e] == pending {
				out = e
				break
			}
		}
		tu := links[i].last + 1
		indeg[u], outdeg[u] = 0, 0
		l := &links[in]
		l.note(tu, w.id(u))
		if in == out {
			state[in] = done
			if !best.offer(k, arcs[in].Weight, arcs[in].Transit, l.second, in, false, l.lastNode) {
				return nil
			}
			continue
		}
		a, b := &arcs[in], arcs[out]
		var okW, okT bool
		a.Weight, okW = add(a.Weight, b.Weight)
		a.Transit, okT = add(a.Transit, b.Transit)
		a.To = b.To
		l.join(&links[out])
		if l.bad = l.bad || links[out].bad || !okW || !okT; l.bad {
			k.Err = ErrUnsupported
			return nil
		}
		next[tail[in]], tail[in] = out, tail[out]
		state[out], into[out] = absorbed, in
		if a.From == a.To {
			state[in] = pending
			loops.push(in)
		}
	}
	return next
}

// spliced returns walk arc i's path followed by the paths of the arcs
// spliced after it.
func spliced(links []link, next []int32, i int32) []graph.ArcID {
	if next == nil || next[i] < 0 {
		return links[i].path
	}
	size := 0
	for x := i; x >= 0; x = next[x] {
		size += len(links[x].path)
	}
	path := make([]graph.ArcID, 0, size)
	for x := i; x >= 0; x = next[x] {
		path = append(path, links[x].path...)
	}
	return path
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
			t, okT := add(denom(af), denom(ab))
			w, okW := add(af.Weight, ab.Weight)
			if !okT || !okW || t <= 0 {
				k.Err = ErrUnsupported
				return
			}
			val := numeric.NewRat(w, t)
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
