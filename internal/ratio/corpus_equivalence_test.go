package ratio_test

// External test package: these corpus-wide gates run on the shared harness
// corpus (internal/testutil), which imports ratio and therefore cannot be
// used from internal test files. They replace the hand-copied corpora the
// kernel and Stern–Brocot gates used to duplicate.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/numeric"
	"repro/internal/ratio"
	"repro/internal/testutil"
)

func mustByName(t *testing.T, name string) ratio.Algorithm {
	t.Helper()
	a, err := ratio.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestKernelEquivalenceRatio mirrors the core package's corpus guarantee for
// the ratio driver: kernelized and raw solves agree on ρ* exactly, and the
// kernelized critical cycle is valid on the original graph with its exact
// recomputed ratio equal to ρ*.
func TestKernelEquivalenceRatio(t *testing.T) {
	var algos []ratio.Algorithm
	for _, name := range []string{"howard", "lawler", "burns", "sternbrocot", "bhk"} {
		algos = append(algos, mustByName(t, name))
	}
	for name, g := range testutil.RatioCorpus(t) {
		raw, err := ratio.MinimumCycleRatio(g, algos[0], core.Options{Certify: true})
		if err != nil {
			t.Fatalf("%s: raw solve: %v", name, err)
		}
		if raw.Certificate == nil {
			t.Fatalf("%s: certified solve returned no certificate", name)
		}
		for _, algo := range algos {
			kr, err := ratio.MinimumCycleRatio(g, algo, core.Options{Kernelize: true, Certify: true})
			if err != nil {
				t.Fatalf("%s/%s: kernelized solve: %v", name, algo.Name(), err)
			}
			if !kr.Ratio.Equal(raw.Ratio) {
				t.Errorf("%s/%s: kernelized ρ* = %v, raw = %v", name, algo.Name(), kr.Ratio, raw.Ratio)
				continue
			}
			if kr.Certificate == nil || !kr.Certificate.Value.Equal(kr.Ratio) {
				t.Errorf("%s/%s: missing or mismatched certificate: %+v", name, algo.Name(), kr.Certificate)
			}
			if err := g.ValidateCycle(kr.Cycle); err != nil {
				t.Errorf("%s/%s: expanded cycle invalid: %v", name, algo.Name(), err)
				continue
			}
			w, tr := g.CycleWeight(kr.Cycle), g.CycleTransit(kr.Cycle)
			if tr <= 0 {
				t.Errorf("%s/%s: expanded cycle has non-positive transit %d", name, algo.Name(), tr)
				continue
			}
			if r := numeric.NewRat(w, tr); !r.Equal(kr.Ratio) {
				t.Errorf("%s/%s: expanded cycle ratio %v != reported ρ* %v", name, algo.Name(), r, kr.Ratio)
			}
		}
	}
}

// TestIntegerOnlyCertificates pins that the integer-path solvers never
// float-snap a certificate: sternbrocot's mediant walk and bhk's verified
// bisection both derive ρ* in exact arithmetic, so Snapped must stay false
// across the whole corpus.
func TestIntegerOnlyCertificates(t *testing.T) {
	for _, algoName := range []string{"sternbrocot", "bhk"} {
		algo := mustByName(t, algoName)
		t.Run(algoName, func(t *testing.T) {
			for name, g := range testutil.RatioCorpus(t) {
				res, err := ratio.MinimumCycleRatio(g, algo, core.Options{Certify: true})
				if err != nil {
					t.Errorf("%s: %v", name, err)
					continue
				}
				if !res.Exact || res.Certificate == nil {
					t.Errorf("%s: result not exact/certified: %+v", name, res)
					continue
				}
				if res.Certificate.Snapped {
					t.Errorf("%s: certificate was float-snapped", name)
				}
			}
		})
	}
}

// TestExactRosterEquivalence solves SPRAND graphs (n = 64 and 128, m = 4n,
// w ∈ [−5000, 10000], two seeds each) with the certified exact engines of
// both problems: howard, karp and madani for the mean of the graph as
// drawn, and howard, lawler, dinkelbach, sternbrocot and bhk for the ratio
// of its twin with transit times in [1, 8]. Every result must be exact and
// certified, and each roster must agree bit for bit. No corpus roster
// includes dinkelbach, so at these sizes this is its only bit-identity gate.
func TestExactRosterEquivalence(t *testing.T) {
	for _, size := range [][2]int{{64, 256}, {128, 512}} {
		for seed := uint64(0); seed < 2; seed++ {
			g, err := gen.Sprand(gen.SprandConfig{N: size[0], M: size[1], MinWeight: -5000, MaxWeight: 10000, Seed: seed + 1})
			if err != nil {
				t.Fatal(err)
			}
			arcs := append([]graph.Arc(nil), g.Arcs()...)
			state := seed*0x9e3779b97f4a7c15 + 7
			for i := range arcs {
				state = state*6364136223846793005 + 1442695040888963407
				arcs[i].Transit = 1 + int64((state>>33)%8)
			}
			tg := graph.FromArcs(g.NumNodes(), arcs)

			var ref numeric.Rat
			check := func(tag string, i int, value numeric.Rat, exact bool, cert *core.Certificate) {
				t.Helper()
				switch {
				case !exact || cert == nil:
					t.Errorf("n=%d seed=%d: %s returned an uncertified or inexact result", size[0], seed, tag)
				case i == 0:
					ref = value
				case value.Num() != ref.Num() || value.Den() != ref.Den():
					t.Errorf("n=%d seed=%d: %s says %v, the roster's first engine %v", size[0], seed, tag, value, ref)
				}
			}
			for i, name := range []string{"howard", "karp", "madani"} {
				algo, err := core.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				res, err := core.MinimumCycleMean(g, algo, core.Options{Certify: true})
				if err != nil {
					t.Fatalf("n=%d seed=%d: mean/%s: %v", size[0], seed, name, err)
				}
				check("mean/"+name, i, res.Mean, res.Exact, res.Certificate)
			}
			for i, name := range []string{"howard", "lawler", "dinkelbach", "sternbrocot", "bhk"} {
				res, err := ratio.MinimumCycleRatio(tg, mustByName(t, name), core.Options{Certify: true})
				if err != nil {
					t.Fatalf("n=%d seed=%d: ratio/%s: %v", size[0], seed, name, err)
				}
				check("ratio/"+name, i, res.Ratio, res.Exact, res.Certificate)
			}
		}
	}
}
