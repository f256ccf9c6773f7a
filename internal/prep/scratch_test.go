package prep_test

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/prep"
	"repro/internal/testutil"
)

// TestScratchReuseMatchesKernelize runs one Scratch over every component of
// both corpora, in both modes, so its arrays grow and shrink between calls.
// Each kernel must equal a fresh Kernelize's exactly: nothing leaks from
// one component into the next.
func TestScratchReuseMatchesKernelize(t *testing.T) {
	corpus := testutil.MeanCorpus(t)
	for name, g := range testutil.RatioCorpus(t) {
		corpus["ratio/"+name] = g
	}
	names := make([]string, 0, len(corpus))
	for name := range corpus {
		names = append(names, name)
	}
	sort.Strings(names)
	var s prep.Scratch
	for _, name := range names {
		for ci, comp := range graph.CyclicComponents(corpus[name]) {
			for _, mode := range []prep.Mode{prep.Mean, prep.Ratio} {
				got, want := s.Kernelize(comp.Graph, mode), prep.Kernelize(comp.Graph, mode)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s component %d mode %d: reused scratch gives a different kernel", name, ci, mode)
				}
			}
		}
	}
}

// BenchmarkKernelizeCircuit kernelizes the 16 components of a 30 976-node
// multi-domain circuit the way the mean driver does: one Scratch per solve,
// reused across its components.
func BenchmarkKernelizeCircuit(b *testing.B) {
	g, err := gen.MultiChain(16, gen.ChainConfig{
		CoreN: 16, Chains: 32, ChainLen: 60, MinWeight: 1, MaxWeight: 1000, SelfLoops: 4, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	comps := graph.CyclicComponents(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var s prep.Scratch
		for _, c := range comps {
			s.Kernelize(c.Graph, prep.Mean)
		}
	}
}

// TestKernelizeTracedEmitsKernelEvent: a traced kernelization reports one
// KernelEvent for its component, with the component's size before and after
// reduction and a measured duration; with a nil tracer it emits nothing and
// returns the same kernel.
func TestKernelizeTracedEmitsKernelEvent(t *testing.T) {
	g, err := gen.Chain(gen.ChainConfig{CoreN: 5, Chains: 3, ChainLen: 5, MinWeight: -15, MaxWeight: 15, SelfLoops: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var events []obs.KernelEvent
	tr := &obs.Trace{OnKernel: func(ev obs.KernelEvent) { events = append(events, ev) }}
	var s prep.Scratch
	k := s.KernelizeTraced(g, prep.Mean, tr, 3)
	if k.Err != nil || k.Solved {
		t.Fatalf("want a kernel left to the solver, got err=%v solved=%v", k.Err, k.Solved)
	}
	if len(events) != 1 {
		t.Fatalf("%d kernel events, want 1", len(events))
	}
	ev := events[0]
	if ev.Component != 3 {
		t.Errorf("event component %d, want 3", ev.Component)
	}
	if ev.OrigNodes != g.NumNodes() || ev.OrigArcs != g.NumArcs() {
		t.Errorf("event reports %d nodes, %d arcs before reduction; the component has %d, %d",
			ev.OrigNodes, ev.OrigArcs, g.NumNodes(), g.NumArcs())
	}
	if ev.Nodes != k.G.NumNodes() || ev.Arcs != k.G.NumArcs() {
		t.Errorf("event reports %d nodes, %d arcs after reduction; the kernel has %d, %d",
			ev.Nodes, ev.Arcs, k.G.NumNodes(), k.G.NumArcs())
	}
	if !ev.Contracted || !ev.HasCandidate || ev.Arcs >= ev.OrigArcs {
		t.Errorf("chains and a self-loop must shrink the component: %+v", ev)
	}
	if ev.Duration <= 0 {
		t.Errorf("event duration %v, want it measured", ev.Duration)
	}
	if want := 1 - float64(ev.Arcs)/float64(ev.OrigArcs); k.ArcReduction() != want {
		t.Errorf("ArcReduction() = %v, want %v", k.ArcReduction(), want)
	}
	if got := s.KernelizeTraced(g, prep.Mean, nil, 3); len(events) != 1 || got.Stats() != k.Stats() {
		t.Errorf("a nil tracer emitted an event or changed the kernel: %d events, %+v vs %+v", len(events), got.Stats(), k.Stats())
	}
}
