package prep

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/numeric"
)

// buildGraph assembles a graph from (from, to, weight, transit) rows.
func buildGraph(n int, rows [][4]int64) *graph.Graph {
	arcs := make([]graph.Arc, len(rows))
	for i, r := range rows {
		arcs[i] = graph.Arc{From: graph.NodeID(r[0]), To: graph.NodeID(r[1]), Weight: r[2], Transit: r[3]}
	}
	return graph.FromArcs(n, arcs)
}

// bruteMinRatio enumerates every simple cycle by DFS (feasible for the tiny
// graphs used here) and returns the exact minimum of Σw/Σt.
func bruteMinRatio(g *graph.Graph, meanMode bool) (numeric.Rat, bool) {
	n := g.NumNodes()
	var (
		best numeric.Rat
		have bool
	)
	onPath := make([]bool, n)
	var path []graph.ArcID
	var dfs func(start, v graph.NodeID)
	dfs = func(start, v graph.NodeID) {
		for _, id := range g.OutArcs(v) {
			a := g.Arc(id)
			if a.To == start {
				w, t := int64(0), int64(0)
				for _, pid := range append(path, id) {
					pa := g.Arc(pid)
					w += pa.Weight
					if meanMode {
						t++
					} else {
						t += pa.Transit
					}
				}
				if t > 0 {
					r := numeric.NewRat(w, t)
					if !have || r.Less(best) {
						best = r
						have = true
					}
				}
				continue
			}
			if a.To < start || onPath[a.To] {
				continue
			}
			onPath[a.To] = true
			path = append(path, id)
			dfs(start, a.To)
			path = path[:len(path)-1]
			onPath[a.To] = false
		}
	}
	for s := graph.NodeID(0); int(s) < n; s++ {
		onPath[s] = true
		path = path[:0]
		dfs(s, s)
		onPath[s] = false
	}
	return best, have
}

// checkExpansion verifies a kernel's expansion map invariants against the
// original graph: each kernel arc's path is a contiguous walk between the
// mapped endpoints whose accumulated weight (and denominator) matches.
func checkExpansion(t *testing.T, g *graph.Graph, k *Kernel, mode Mode) {
	t.Helper()
	if k.identity || k.ArcPaths == nil {
		return
	}
	for id := graph.ArcID(0); int(id) < k.G.NumArcs(); id++ {
		a := k.G.Arc(id)
		path := k.ArcPaths[id]
		if len(path) == 0 {
			t.Fatalf("kernel arc %d: empty expansion path", id)
		}
		var w, tr int64
		for i, oid := range path {
			oa := g.Arc(oid)
			w += oa.Weight
			if mode == Mean {
				tr++
			} else {
				tr += oa.Transit
			}
			if i > 0 && g.Arc(path[i-1]).To != oa.From {
				t.Fatalf("kernel arc %d: path not contiguous at step %d", id, i)
			}
		}
		if g.Arc(path[0]).From != k.NodeMap[a.From] {
			t.Errorf("kernel arc %d: path starts at %d, want %d", id, g.Arc(path[0]).From, k.NodeMap[a.From])
		}
		if g.Arc(path[len(path)-1]).To != k.NodeMap[a.To] {
			t.Errorf("kernel arc %d: path ends at %d, want %d", id, g.Arc(path[len(path)-1]).To, k.NodeMap[a.To])
		}
		if w != a.Weight || tr != a.Transit {
			t.Errorf("kernel arc %d: accumulated (w=%d,t=%d), arc says (w=%d,t=%d)", id, w, tr, a.Weight, a.Transit)
		}
	}
}

func TestSelfLoopExtraction(t *testing.T) {
	// Ring of 3 with two self-loops; the lighter loop (weight 2) is the
	// minimum mean cycle (ring mean is 10).
	g := buildGraph(3, [][4]int64{
		{0, 1, 10, 1}, {1, 2, 10, 1}, {2, 0, 10, 1},
		{1, 1, 5, 1}, {2, 2, 2, 1},
	})
	k := Kernelize(g, Mean)
	if k.Err != nil {
		t.Fatal(k.Err)
	}
	if !k.HasCandidate || !k.CandidateValue.Equal(numeric.FromInt(2)) {
		t.Fatalf("candidate = %v (has=%v), want 2", k.CandidateValue, k.HasCandidate)
	}
	for _, a := range k.G.Arcs() {
		if a.From == a.To {
			t.Error("kernel must not contain self-loops")
		}
	}
	cyc := k.CandidateCycle()
	if len(cyc) != 1 || g.Arc(cyc[0]).Weight != 2 {
		t.Errorf("candidate cycle = %v, want the weight-2 self-loop", cyc)
	}
	if err := g.ValidateCycle(cyc); err != nil {
		t.Error(err)
	}
}

func TestPureCycleCollapses(t *testing.T) {
	// An n-cycle is one long chain: contraction must collapse it entirely
	// into a closed-form candidate with no kernel left to solve.
	g := gen.Cycle(50, 3)
	k := Kernelize(g, Mean)
	if k.Err != nil {
		t.Fatal(k.Err)
	}
	if !k.Solved || !k.HasCandidate {
		t.Fatalf("pure cycle should solve in closed form: solved=%v hasCand=%v", k.Solved, k.HasCandidate)
	}
	if !k.CandidateValue.Equal(numeric.FromInt(3)) {
		t.Errorf("candidate = %v, want 3", k.CandidateValue)
	}
	cyc := k.CandidateCycle()
	if len(cyc) != 50 {
		t.Errorf("candidate cycle length = %d, want 50", len(cyc))
	}
	if err := g.ValidateCycle(cyc); err != nil {
		t.Error(err)
	}
}

func TestChainContractionReduction(t *testing.T) {
	g, err := gen.Chain(gen.ChainConfig{CoreN: 6, Chains: 8, ChainLen: 40, MinWeight: -9, MaxWeight: 9, SelfLoops: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	k := Kernelize(g, Mean)
	if k.Err != nil {
		t.Fatal(k.Err)
	}
	if !k.Contracted {
		t.Fatal("chain-heavy graph must contract")
	}
	if k.G.NumNodes() > 6 {
		t.Errorf("kernel has %d nodes; all %d interiors should be gone", k.G.NumNodes(), 8*40)
	}
	if k.NodeReduction() < 0.9 {
		t.Errorf("node reduction = %.2f, want > 0.9", k.NodeReduction())
	}
	checkExpansion(t, g, k, Mean)
}

func TestTwoNodeClosedForm(t *testing.T) {
	// Two core nodes joined by parallel arcs both ways; cycles are the four
	// fwd×bwd pairs; minimum pair mean = (1 + (-3))/2 = -1.
	g := buildGraph(2, [][4]int64{
		{0, 1, 1, 1}, {0, 1, 4, 1},
		{1, 0, -3, 1}, {1, 0, 2, 1},
	})
	k := Kernelize(g, Mean)
	if k.Err != nil {
		t.Fatal(k.Err)
	}
	if !k.Solved {
		t.Fatal("two-node kernel must be solved in closed form")
	}
	if want := numeric.NewRat(-2, 2); !k.CandidateValue.Equal(want) {
		t.Errorf("candidate = %v, want %v", k.CandidateValue, want)
	}
	cyc := k.CandidateCycle()
	if err := g.ValidateCycle(cyc); err != nil {
		t.Error(err)
	}
	if w := g.CycleWeight(cyc); w != -2 {
		t.Errorf("candidate cycle weight = %d, want -2", w)
	}
}

func TestIdentityKernel(t *testing.T) {
	// Complete digraph on 4 nodes: no self-loops, no degree-(1,1) nodes —
	// nothing reduces, so the kernel must alias the input.
	g := gen.Complete(4, -10, 10, 1)
	k := Kernelize(g, Mean)
	if k.Err != nil {
		t.Fatal(k.Err)
	}
	if k.G != g {
		t.Error("identity kernel must alias the input graph")
	}
	if k.Contracted || k.Solved || k.HasCandidate {
		t.Errorf("identity kernel flags wrong: %+v", k)
	}
	cyc := []graph.ArcID{0, 3} // 0->1, 1->0 in the complete graph's arc order
	exp := k.ExpandCycle(cyc)
	if len(exp) != 2 || exp[0] != cyc[0] || exp[1] != cyc[1] {
		t.Errorf("identity expansion changed the cycle: %v -> %v", cyc, exp)
	}
}

func TestBoundsBracketOptimum(t *testing.T) {
	cfgs := []gen.ChainConfig{
		{CoreN: 5, Chains: 3, ChainLen: 6, MinWeight: -20, MaxWeight: 20, Seed: 1},
		{CoreN: 7, Chains: 2, ChainLen: 3, MinWeight: 1, MaxWeight: 50, SelfLoops: 1, Seed: 2},
	}
	for i, cfg := range cfgs {
		g, err := gen.Chain(cfg)
		if err != nil {
			t.Fatal(err)
		}
		k := Kernelize(g, Mean)
		if k.Err != nil {
			t.Fatal(k.Err)
		}
		opt, ok := bruteMinRatio(g, true)
		if !ok {
			t.Fatalf("cfg %d: no cycle found by brute force", i)
		}
		if !k.HasBounds {
			continue
		}
		if opt.Less(k.Lower) {
			t.Errorf("cfg %d: λ* = %v below Lower = %v", i, opt, k.Lower)
		}
		if k.Upper.Less(opt) {
			t.Errorf("cfg %d: λ* = %v above Upper = %v", i, opt, k.Upper)
		}
		if k.HasCandidate && k.CandidateValue.Less(k.Upper) {
			t.Errorf("cfg %d: Upper = %v not capped by candidate %v", i, k.Upper, k.CandidateValue)
		}
	}
}

func TestRatioModeUnsupported(t *testing.T) {
	// Negative transit time.
	g := buildGraph(2, [][4]int64{{0, 1, 1, -1}, {1, 0, 1, 1}})
	if k := Kernelize(g, Ratio); k.Err == nil {
		t.Error("negative transit must set Err")
	}
	// Zero-transit self-loop: its ratio is undefined.
	g = buildGraph(2, [][4]int64{{0, 1, 1, 1}, {1, 0, 1, 1}, {0, 0, 1, 0}})
	if k := Kernelize(g, Ratio); k.Err == nil {
		t.Error("zero-transit self-loop must set Err")
	}
	// Mean mode ignores transit entirely.
	if k := Kernelize(g, Mean); k.Err != nil {
		t.Errorf("mean mode must not fail on transit values: %v", k.Err)
	}
}

func TestRatioModeAccumulatesTransit(t *testing.T) {
	// 0 -> 1 -> 2 -> 0 with distinct transits; node 1 and 2 are interior, so
	// the ring collapses to a candidate with Σw/Σt = (3+4+5)/(2+3+4) = 12/9.
	g := buildGraph(3, [][4]int64{{0, 1, 3, 2}, {1, 2, 4, 3}, {2, 0, 5, 4}})
	k := Kernelize(g, Ratio)
	if k.Err != nil {
		t.Fatal(k.Err)
	}
	if !k.Solved || !k.HasCandidate {
		t.Fatal("pure ring must collapse in ratio mode too")
	}
	if want := numeric.NewRat(12, 9); !k.CandidateValue.Equal(want) {
		t.Errorf("candidate = %v, want %v", k.CandidateValue, want)
	}
}
