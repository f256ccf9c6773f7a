package graph

// ParentCycles finds the cycles of a parent graph: the functional graph a
// Bellman–Ford-style relaxation leaves behind, in which parent[v] is the one
// arc that last improved v's distance (−1 when none did). Each node has at
// most one parent arc, so every cycle is found by one O(n) walk.
//
// The zero value is ready to use. Its buffers grow to the largest graph
// scanned and are reused afterwards, so callers keep one in their pooled
// workspace and scan without allocating.
type ParentCycles struct {
	state   []int32 // 0 unvisited, 1 on the current walk, 2 done
	walkPos []int32
	walk    []NodeID
	cycle   []ArcID
}

// Scan calls fn once per cycle of the parent graph, with the cycle's arcs in
// forward order, and stops early when fn returns false. Walks start at roots
// 0, 1, …, n−1 in turn and follow parent arcs backwards, so the order of the
// cycles is deterministic. The slice passed to fn is reused; copy it to keep
// it.
func (s *ParentCycles) Scan(g *Graph, parent []ArcID, fn func(cycle []ArcID) bool) {
	n := len(parent)
	if cap(s.state) < n {
		s.state = make([]int32, n)
		s.walkPos = make([]int32, n)
	}
	state, walkPos := s.state[:n], s.walkPos[:n]
	for i := range state {
		state[i] = 0
	}
	walk := s.walk[:0]
	cycle := s.cycle[:0]
	defer func() { s.walk, s.cycle = walk, cycle }()
	for root := 0; root < n; root++ {
		if state[root] != 0 || parent[root] < 0 {
			continue
		}
		walk = walk[:0]
		v := NodeID(root)
		for state[v] == 0 && parent[v] >= 0 {
			state[v] = 1
			walkPos[v] = int32(len(walk))
			walk = append(walk, v)
			v = g.arcs[parent[v]].From
		}
		if state[v] == 1 {
			// walk[walkPos[v]:] closes a cycle in parent (reverse)
			// orientation: parent[walk[i]] runs walk[i+1] → walk[i], with the
			// last element's parent leaving walk[walkPos[v]]. Emitting the
			// segment's parent arcs in reverse walk order yields the forward
			// cycle.
			cycle = cycle[:0]
			for i := len(walk) - 1; i >= int(walkPos[v]); i-- {
				cycle = append(cycle, parent[walk[i]])
			}
			if !fn(cycle) {
				return
			}
		}
		for _, u := range walk {
			state[u] = 2
		}
	}
}

// PolicyCycles finds the cycles of a policy graph: the functional graph in
// which policy[v] is the one out-arc chosen at v. Every node has exactly one
// arc, so every walk ends on a cycle, and one O(n) pass finds them all.
// Every policy-based solver, mean or ratio, walks its policies with it.
//
// The zero value is ready to use. Like ParentCycles, its buffers grow to the
// largest graph walked and are reused, so callers keep one in their pooled
// workspace.
type PolicyCycles struct {
	state   []int32 // 0 unvisited, 1 on the current walk, 2 done
	walkPos []int32
	walk    []NodeID
	cycle   []ArcID
}

// Walk starts a walk at every node no earlier walk reached, in node order,
// and follows policy arcs until it meets a node already seen. A walk that
// meets itself has closed a new cycle: fn gets its arcs in walk order,
// starting with the arc out of the node where the walk entered it. tail,
// when non-nil, then gets the walk's nodes before that cycle (all of them
// when the walk ran into an earlier walk's node), in walk order, so the last
// one's policy successor is already on a reported cycle or an earlier walk.
// Both slices are reused across calls; copy them to keep them.
func (s *PolicyCycles) Walk(g *Graph, policy []ArcID, fn func(cycle []ArcID), tail func(walk []NodeID)) {
	n := len(policy)
	if cap(s.state) < n {
		s.state = make([]int32, n)
		s.walkPos = make([]int32, n)
	}
	state, walkPos := s.state[:n], s.walkPos[:n]
	for i := range state {
		state[i] = 0
	}
	walk := s.walk[:0]
	cycle := s.cycle[:0]
	defer func() { s.walk, s.cycle = walk, cycle }()
	for root := 0; root < n; root++ {
		if state[root] != 0 {
			continue
		}
		walk = walk[:0]
		v := NodeID(root)
		for state[v] == 0 {
			state[v] = 1
			walkPos[v] = int32(len(walk))
			walk = append(walk, v)
			v = g.arcs[policy[v]].To
		}
		end := len(walk)
		if state[v] == 1 {
			// Nodes from walkPos[v] onward form a cycle.
			end = int(walkPos[v])
			cycle = cycle[:0]
			for _, u := range walk[end:] {
				cycle = append(cycle, policy[u])
			}
			fn(cycle)
		}
		if tail != nil && end > 0 {
			tail(walk[:end])
		}
		for _, u := range walk {
			state[u] = 2
		}
	}
}
