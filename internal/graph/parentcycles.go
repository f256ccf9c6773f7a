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
