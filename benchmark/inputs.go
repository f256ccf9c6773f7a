package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"

	"repro/internal/gen"
	"repro/internal/graph"
)

// Every generated input derives from the run's -seed through one PCG stream
// per purpose, so a draw added to one stream never shifts another.
const (
	streamMeanPool = iota + 1
	streamRatioPool
	streamCircuit
	streamServeHot
	streamServeSession
	streamServeRequests
	streamServeArrivals
)

func rngFor(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// SPRAND weights follow the paper's interval shifted to admit negative
// cycle means, so the sign of λ* varies across graphs.
const minWeight, maxWeight = -5000, 10000

// sprand generates one SPRAND graph of n nodes and m arcs.
func sprand(rng *rand.Rand, n, m int) (*graph.Graph, error) {
	return gen.Sprand(gen.SprandConfig{N: n, M: m, MinWeight: minWeight, MaxWeight: maxWeight, Seed: rng.Uint64()})
}

// sprandPool generates count SPRAND graphs of n nodes and m arcs.
func sprandPool(rng *rand.Rand, count, n, m int) ([]*graph.Graph, error) {
	pool := make([]*graph.Graph, count)
	for i := range pool {
		g, err := sprand(rng, n, m)
		if err != nil {
			return nil, err
		}
		pool[i] = g
	}
	return pool, nil
}

// withTransits copies g with each arc's transit time drawn from [lo, hi].
func withTransits(g *graph.Graph, rng *rand.Rand, lo, hi int64) *graph.Graph {
	b := graph.NewBuilder(g.NumNodes(), g.NumArcs())
	b.AddNodes(g.NumNodes())
	for _, a := range g.Arcs() {
		b.AddArcTransit(a.From, a.To, a.Weight, lo+rng.Int64N(hi-lo+1))
	}
	return b.Build()
}

// Circuit shape: multi-clock-domain designs are chain-dominated blocks of
// registers with forward-only arcs between domains, so every block is its
// own cyclic SCC and kernelization contracts almost every node.
const (
	circuitBlocks     = 16
	circuitCoreN      = 16
	circuitChains     = 32
	circuitChainLen   = 60
	circuitSelfLoops  = 4
	circuitCrossArcs  = 4 // forward arcs from each block to the next
	circuitMinDelay   = 1
	circuitMaxDelay   = 1000
	circuitBlockNodes = circuitCoreN + circuitChains*circuitChainLen
)

// circuit builds one multi-domain circuit graph of circuitBlocks
// gen.Chain blocks.
func circuit(rng *rand.Rand) (*graph.Graph, error) {
	b := graph.NewBuilder(circuitBlocks*circuitBlockNodes, 0)
	var prev graph.NodeID = -1
	for blk := 0; blk < circuitBlocks; blk++ {
		g, err := gen.Chain(gen.ChainConfig{
			CoreN: circuitCoreN, Chains: circuitChains, ChainLen: circuitChainLen,
			MinWeight: circuitMinDelay, MaxWeight: circuitMaxDelay,
			SelfLoops: circuitSelfLoops, Seed: rng.Uint64(),
		})
		if err != nil {
			return nil, err
		}
		base := b.AddNodes(g.NumNodes())
		for _, a := range g.Arcs() {
			b.AddArc(base+a.From, base+a.To, a.Weight)
		}
		if prev >= 0 {
			for range circuitCrossArcs {
				u := prev + graph.NodeID(rng.IntN(circuitBlockNodes))
				v := base + graph.NodeID(rng.IntN(g.NumNodes()))
				b.AddArc(u, v, circuitMinDelay+rng.Int64N(circuitMaxDelay-circuitMinDelay+1))
			}
		}
		prev = base
	}
	return b.Build(), nil
}

// render returns g in the text format graph.Read decodes.
func render(g *graph.Graph) ([]byte, error) {
	var buf bytes.Buffer
	if err := graph.Write(&buf, g); err != nil {
		return nil, fmt.Errorf("render graph: %w", err)
	}
	return buf.Bytes(), nil
}
