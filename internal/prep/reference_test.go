package prep

import (
	"repro/internal/graph"
	"repro/internal/numeric"
)

// warc is one arc of the reference contraction's working set and a node of
// its contraction DAG: a leaf (r < 0) stands for the single original arc l,
// a merge node concatenates children l then r.
type warc struct {
	from, to graph.NodeID
	w, t     int64
	l, r     int32 // children; r < 0 marks a leaf and l is the original arc ID
	plen     int32 // original arcs under this node
	dead     bool
}

type refScratch struct {
	warcs           []warc
	ins, outs       [][]int32
	inBack, outBack []int32
	indeg, outdeg   []int32
	removed         []bool
	queue           []graph.NodeID
	nodeOf          []graph.NodeID
	fstack          []int32
}

// flatten appends the original arcs under warcs[root] to dst in path order.
func (s *refScratch) flatten(warcs []warc, root int32, dst []graph.ArcID) []graph.ArcID {
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

// referenceKernelize is the node-at-a-time chain contraction the walk
// replaced, kept as the reference its kernels are compared with: it pops
// chain nodes from a stack and splices each one's two arcs into one.
func referenceKernelize(g *graph.Graph, mode Mode) *Kernel {
	s := new(refScratch)
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
