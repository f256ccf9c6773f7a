package prep_test

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
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
