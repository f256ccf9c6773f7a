package gen

import (
	"testing"

	"repro/internal/graph"
)

func TestChainShape(t *testing.T) {
	cfg := ChainConfig{
		CoreN: 8, Chains: 5, ChainLen: 20,
		MinWeight: -50, MaxWeight: 50,
		SelfLoops: 3, Seed: 42,
	}
	g, err := Chain(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantN := cfg.CoreN + cfg.Chains*cfg.ChainLen
	wantM := cfg.CoreN + cfg.CoreN/2 + cfg.Chains*(cfg.ChainLen+1) + cfg.SelfLoops
	if g.NumNodes() != wantN {
		t.Errorf("nodes = %d, want %d", g.NumNodes(), wantN)
	}
	if g.NumArcs() != wantM {
		t.Errorf("arcs = %d, want %d", g.NumArcs(), wantM)
	}
	if !graph.IsStronglyConnected(g) {
		t.Error("chain graph must be strongly connected")
	}
	loops := 0
	for _, a := range g.Arcs() {
		if a.From == a.To {
			loops++
			if int(a.From) >= cfg.CoreN {
				t.Errorf("self-loop on interior node %d", a.From)
			}
		}
		if a.Weight < cfg.MinWeight || a.Weight > cfg.MaxWeight {
			t.Errorf("weight %d outside [%d,%d]", a.Weight, cfg.MinWeight, cfg.MaxWeight)
		}
	}
	if loops != cfg.SelfLoops {
		t.Errorf("self-loops = %d, want %d", loops, cfg.SelfLoops)
	}
}

func TestChainInteriorDegrees(t *testing.T) {
	cfg := ChainConfig{CoreN: 4, Chains: 7, ChainLen: 13, MinWeight: 1, MaxWeight: 9, Seed: 7}
	g, err := Chain(cfg)
	if err != nil {
		t.Fatal(err)
	}
	indeg := make([]int, g.NumNodes())
	outdeg := make([]int, g.NumNodes())
	for _, a := range g.Arcs() {
		outdeg[a.From]++
		indeg[a.To]++
	}
	for v := cfg.CoreN; v < g.NumNodes(); v++ {
		if indeg[v] != 1 || outdeg[v] != 1 {
			t.Errorf("interior node %d has in=%d out=%d, want 1/1", v, indeg[v], outdeg[v])
		}
	}
}

func TestChainDeterministic(t *testing.T) {
	cfg := ChainConfig{CoreN: 6, Chains: 3, ChainLen: 10, MinWeight: -5, MaxWeight: 5, SelfLoops: 2, Seed: 99}
	g1, err := Chain(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := Chain(cfg)
	a1, a2 := g1.Arcs(), g2.Arcs()
	if len(a1) != len(a2) {
		t.Fatalf("arc counts differ: %d vs %d", len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("arc %d differs: %+v vs %+v", i, a1[i], a2[i])
		}
	}
}

func TestChainRejectsBadConfig(t *testing.T) {
	bad := []ChainConfig{
		{CoreN: 1, MinWeight: 0, MaxWeight: 1},
		{CoreN: 4, Chains: -1, MinWeight: 0, MaxWeight: 1},
		{CoreN: 4, MinWeight: 5, MaxWeight: 1},
	}
	for i, cfg := range bad {
		if _, err := Chain(cfg); err == nil {
			t.Errorf("config %d: expected error, got nil", i)
		}
	}
}

func TestMultiChainBlocksAreTheCyclicSCCs(t *testing.T) {
	cfg := ChainConfig{CoreN: 6, Chains: 3, ChainLen: 8, MinWeight: -5, MaxWeight: 5, SelfLoops: 1, Seed: 4}
	const k = 5
	g, err := MultiChain(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	block := cfg.CoreN + cfg.Chains*cfg.ChainLen
	if g.NumNodes() != k*block {
		t.Errorf("nodes = %d, want %d", g.NumNodes(), k*block)
	}
	comps := graph.CyclicComponents(g)
	if len(comps) != k {
		t.Fatalf("%d cyclic components, want %d", len(comps), k)
	}
	for _, c := range comps {
		if len(c.Nodes) != block {
			t.Errorf("component of %d nodes, want %d", len(c.Nodes), block)
		}
	}
	if _, err := MultiChain(0, cfg); err == nil {
		t.Error("MultiChain(0, ...) must fail")
	}
}

func TestChainZeroLengthChains(t *testing.T) {
	g, err := Chain(ChainConfig{CoreN: 5, Chains: 4, ChainLen: 0, MinWeight: 1, MaxWeight: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 5 {
		t.Errorf("nodes = %d, want 5", g.NumNodes())
	}
	if !graph.IsStronglyConnected(g) {
		t.Error("must stay strongly connected")
	}
}
