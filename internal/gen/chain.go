package gen

import (
	"fmt"

	"repro/internal/graph"
)

// ChainConfig parameterizes the chain-heavy circuit family mirroring the
// DAC'99 study's Table 4 workloads: circuit timing graphs are dominated by
// long combinational chains (in-degree = out-degree = 1 paths) hanging
// between a small strongly cyclic core of registers. The family is the
// stress test for the kernelization pipeline — almost every node is a chain
// interior that contraction removes.
type ChainConfig struct {
	// CoreN is the number of core nodes, joined in a ring (guaranteeing
	// strong connectivity) plus CoreN/2 random chord arcs.
	CoreN int
	// Chains is the number of long chains; each runs from a random core node
	// through ChainLen fresh interior nodes back to a random core node.
	Chains int
	// ChainLen is the number of interior nodes per chain (each contributes
	// ChainLen+1 arcs). Zero-length chains degenerate to single core arcs.
	ChainLen int
	// MinWeight and MaxWeight bound the uniform arc weights.
	MinWeight, MaxWeight int64
	// SelfLoops adds this many self-loops on random core nodes (weights from
	// the same interval) — exercising the self-loop extraction reduction.
	SelfLoops int
	// Seed drives the deterministic generator.
	Seed uint64
}

// Chain builds a chain-heavy strongly connected graph per cfg. The total
// node count is CoreN + Chains·ChainLen and the arc count is
// CoreN + CoreN/2 + Chains·(ChainLen+1) + SelfLoops.
func Chain(cfg ChainConfig) (*graph.Graph, error) {
	src, err := NewChainSource(cfg)
	if err != nil {
		return nil, err
	}
	return graph.Materialize(src)
}

// MultiChain joins k chain-heavy blocks, each Chain(cfg) with its own seed
// derived from cfg.Seed, by one forward arc between consecutive blocks and
// never a backward one, so the blocks are exactly the cyclic SCCs. This is
// the shape of a multi-domain circuit, where SCC decomposition and
// kernelization do most of a solve's work.
func MultiChain(k int, cfg ChainConfig) (*graph.Graph, error) {
	if k < 1 {
		return nil, fmt.Errorf("gen: MultiChain needs k >= 1")
	}
	r := newRNG(cfg.Seed ^ 0x5bd1e995)
	var (
		b    *graph.Builder
		prev graph.NodeID
	)
	for blk := 0; blk < k; blk++ {
		bc := cfg
		bc.Seed = cfg.Seed + uint64(blk)*1315423911
		sub, err := Chain(bc)
		if err != nil {
			return nil, err
		}
		size := sub.NumNodes()
		if b == nil {
			b = graph.NewBuilder(k*size, k*(sub.NumArcs()+1))
		}
		base := b.AddNodes(size)
		for _, a := range sub.Arcs() {
			b.AddArc(base+a.From, base+a.To, a.Weight)
		}
		if blk > 0 {
			u := prev + graph.NodeID(r.intn(int64(size)))
			v := base + graph.NodeID(r.intn(int64(size)))
			b.AddArc(u, v, r.rangeInt(cfg.MinWeight, cfg.MaxWeight))
		}
		prev = base
	}
	return b.Build(), nil
}
