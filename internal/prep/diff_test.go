package prep

import (
	"fmt"
	"reflect"

	"repro/internal/graph"
)

// kernelDiff describes how got differs from want, or returns "" when they
// are the same kernel. want reduces a component whose nodes and arcs nodes
// and arcMap map into the graph got's node map and paths use (nil: the
// same graph). Node map, arcs, paths and candidate are compared in that
// graph's IDs. An identity kernel's graph is compared arc by arc with the
// component, with Mean-mode transits read as 1, as the solvers read them.
// Kernels that set Err are compared only by that and their input size.
func kernelDiff(got, want *Kernel, nodes []graph.NodeID, arcMap []graph.ArcID, mode Mode) string {
	node := func(v graph.NodeID) graph.NodeID {
		if nodes == nil {
			return v
		}
		return nodes[v]
	}
	arc := func(e graph.ArcID) graph.ArcID {
		if arcMap == nil {
			return e
		}
		return arcMap[e]
	}
	if got.OrigNodes != want.OrigNodes || got.OrigArcs != want.OrigArcs {
		return fmt.Sprintf("input size %d/%d, want %d/%d", got.OrigNodes, got.OrigArcs, want.OrigNodes, want.OrigArcs)
	}
	if (got.Err != nil) != (want.Err != nil) {
		return fmt.Sprintf("Err %v, want %v", got.Err, want.Err)
	}
	if want.Err != nil {
		return ""
	}
	type flags struct {
		Contracted, Solved, HasCandidate, HasBounds, identity bool
	}
	if f, wf := (flags{got.Contracted, got.Solved, got.HasCandidate, got.HasBounds, got.identity}),
		(flags{want.Contracted, want.Solved, want.HasCandidate, want.HasBounds, want.identity}); f != wf {
		return fmt.Sprintf("flags %+v, want %+v", f, wf)
	}
	if !got.CandidateValue.Equal(want.CandidateValue) || !got.Lower.Equal(want.Lower) || !got.Upper.Equal(want.Upper) {
		return fmt.Sprintf("candidate %v bounds [%v, %v], want %v [%v, %v]",
			got.CandidateValue, got.Lower, got.Upper, want.CandidateValue, want.Lower, want.Upper)
	}
	var wantCand []graph.ArcID
	for _, e := range want.candidate {
		wantCand = append(wantCand, arc(e))
	}
	if !reflect.DeepEqual(got.candidate, wantCand) {
		return fmt.Sprintf("candidate cycle %v, want %v", got.candidate, wantCand)
	}
	if got.G.NumNodes() != want.G.NumNodes() || got.G.NumArcs() != want.G.NumArcs() {
		return fmt.Sprintf("kernel %d nodes %d arcs, want %d, %d", got.G.NumNodes(), got.G.NumArcs(), want.G.NumNodes(), want.G.NumArcs())
	}
	for id := graph.ArcID(0); int(id) < got.G.NumArcs(); id++ {
		a, wa := got.G.Arc(id), want.G.Arc(id)
		if want.identity && mode == Mean {
			a.Transit, wa.Transit = 1, 1
		}
		if a != wa {
			return fmt.Sprintf("kernel arc %d is %+v, want %+v", id, a, wa)
		}
		gotPath := []graph.ArcID{id}
		if got.ArcPaths != nil {
			gotPath = got.ArcPaths[id]
		}
		wantPath := []graph.ArcID{arc(id)}
		if want.ArcPaths != nil {
			wantPath = wantPath[:0]
			for _, e := range want.ArcPaths[id] {
				wantPath = append(wantPath, arc(e))
			}
		}
		if !reflect.DeepEqual(gotPath, wantPath) {
			return fmt.Sprintf("kernel arc %d path %v, want %v", id, gotPath, wantPath)
		}
	}
	for v := graph.NodeID(0); int(v) < got.G.NumNodes(); v++ {
		gv, wv := v, node(v)
		if got.NodeMap != nil {
			gv = got.NodeMap[v]
		}
		if want.NodeMap != nil {
			wv = node(want.NodeMap[v])
		}
		if gv != wv {
			return fmt.Sprintf("kernel node %d maps to %d, want %d", v, gv, wv)
		}
	}
	return ""
}
