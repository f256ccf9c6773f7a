package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/counter"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/numeric"
	"repro/internal/prep"
)

// wrapCycle is a 2^17-node cycle whose exact arithmetic does not fit int64:
// the first half of its arcs weigh −(2^31−1), the second half 2^31−1 and the
// closing arc 2^31−2, so λ* = −1/2^17 and q·|w| alone is about 2^48 per arc.
// A Bellman–Ford over those reduced weights wraps past −2^63.
func wrapCycle() *graph.Graph {
	const n = 1 << 17
	lim := int64(MaxWeightMagnitude)
	arcs := make([]graph.Arc, n)
	for i := range arcs {
		w := lim
		if i < n/2 {
			w = -lim
		}
		if i == n-1 {
			w = lim - 1
		}
		arcs[i] = graph.Arc{From: graph.NodeID(i), To: graph.NodeID((i + 1) % n), Weight: w, Transit: 1}
	}
	return graph.FromArcs(n, arcs)
}

// TestWrappedArithmeticIsNumericRange: when λ's scaled arithmetic cannot be
// done exactly in int64, howard and madani report ErrNumericRange, certified
// or not — never an Exact answer proven by wrapped sums, and never
// ErrWeightRange for weights inside the ±(2^31−1) contract.
func TestWrappedArithmeticIsNumericRange(t *testing.T) {
	g := wrapCycle()
	all := make([]graph.ArcID, g.NumArcs())
	for i := range all {
		all[i] = graph.ArcID(i)
	}
	if got := numeric.NewRat(g.CycleWeight(all), int64(len(all))); !got.Equal(numeric.NewRat(-1, 1<<17)) {
		t.Fatalf("wrapCycle mean = %v, want -1/131072", got)
	}
	for _, name := range []string{"howard", "madani"} {
		algo := mustAlgo(t, name)
		for _, certify := range []bool{false, true} {
			res, err := MinimumCycleMean(g, algo, Options{Certify: certify})
			if !errors.Is(err, ErrNumericRange) {
				t.Errorf("%s certify=%v: got (%v, exact=%v, err=%v), want ErrNumericRange",
					name, certify, res.Mean, res.Exact, err)
			}
		}
	}
}

// certifiedHoward solves a strongly connected graph with Certify set and
// returns the raw solver result, potentials included.
func certifiedHoward(t *testing.T, g *graph.Graph) Result {
	t.Helper()
	res, _, err := howardRun(g, Options{Certify: true}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.potentials) != g.NumNodes() {
		t.Fatalf("howard handed over %d potentials for %d nodes", len(res.potentials), g.NumNodes())
	}
	return res
}

func sprandSCC(t *testing.T, seed uint64) *graph.Graph {
	t.Helper()
	g, err := gen.Sprand(gen.SprandConfig{N: 80, M: 320, MinWeight: -500, MaxWeight: 500, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if !graph.IsStronglyConnected(g) {
		t.Fatalf("seed %d: SPRAND graph is not strongly connected", seed)
	}
	return g
}

// TestCertifierChecksPotentialsInOnePass: Howard's own potentials prove its
// answer in one pass over the arcs, one negative-cycle check of m
// relaxations, with no Bellman–Ford.
func TestCertifierChecksPotentialsInOnePass(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		g := sprandSCC(t, seed)
		res := certifiedHoward(t, g)
		before := res.Counts
		if err := certifyMeanProof(g, &res); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := res.Counts.NegativeCycleChecks - before.NegativeCycleChecks; got != 1 {
			t.Errorf("seed %d: certification ran %d checks, want 1", seed, got)
		}
		if got := res.Counts.Relaxations - before.Relaxations; got != g.NumArcs() {
			t.Errorf("seed %d: certification made %d relaxations, want one pass of %d", seed, got, g.NumArcs())
		}
		if res.potentials != nil {
			t.Errorf("seed %d: certification left the potentials on the result", seed)
		}
	}
}

// TestCertifierFallsBackOnCorruptPotentials: a potential off by one breaks
// its node's tight policy arc, so the one-pass check fails and Bellman–Ford
// proves the (correct) answer instead.
func TestCertifierFallsBackOnCorruptPotentials(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		g := sprandSCC(t, seed)
		for _, delta := range []int64{1, -1} {
			res := certifiedHoward(t, g)
			want := res.Mean
			v := int(seed*7+3) % g.NumNodes()
			res.potentials[v] += delta
			before := res.Counts
			if err := certifyMeanProof(g, &res); err != nil {
				t.Fatalf("seed %d delta %d: %v", seed, delta, err)
			}
			if !res.Mean.Equal(want) || res.Certificate == nil {
				t.Fatalf("seed %d delta %d: certified %v, want %v", seed, delta, res.Mean, want)
			}
			// +1 always breaks v's own policy arc; −1 may break an arc
			// into v or pass, both of which are proofs.
			checks := res.Counts.NegativeCycleChecks - before.NegativeCycleChecks
			if delta == 1 && checks != 2 {
				t.Errorf("seed %d: %d checks after corrupting a potential, want the pass plus Bellman–Ford", seed, checks)
			}
		}
	}
}

// TestCertifierRejectsPotentialsForAWrongValue: a claimed value above λ*,
// witnessed by a real cycle and backed by the policy potentials built for
// it, fails the one-pass check and then Bellman–Ford.
func TestCertifierRejectsPotentialsForAWrongValue(t *testing.T) {
	// Two-cycle 0↔1 of mean 1 (λ*) and a self-loop of mean 5 on node 1.
	g := graph.FromArcs(2, []graph.Arc{
		{From: 0, To: 1, Weight: 1, Transit: 1},
		{From: 1, To: 0, Weight: 1, Transit: 1},
		{From: 1, To: 1, Weight: 5, Transit: 1},
	})
	policy := []graph.ArcID{0, 2}
	pi := make([]int64, 2)
	var pc pcScratch
	if !policyPotentials(g, policy, 5, 1, pi, &pc) {
		t.Fatal("the policy's only cycle has mean 5, so its potentials at λ = 5 must close")
	}
	res := Result{Mean: numeric.NewRat(5, 1), Cycle: []graph.ArcID{2}, Exact: true, potentials: pi}
	if err := certifyMeanProof(g, &res); !errors.Is(err, ErrCertification) {
		t.Fatalf("certified a value above λ* = 1: err = %v", err)
	}
}

// TestCertifierRangeChecksPotentials: potentials near ±2^63 would make the
// per-arc sums wrap, and wrapped sums can accept a wrong value. The range
// check rejects them first, and Bellman–Ford then finds the better cycle.
func TestCertifierRangeChecksPotentials(t *testing.T) {
	g := graph.FromArcs(2, []graph.Arc{
		{From: 0, To: 1, Weight: 1, Transit: 1},
		{From: 1, To: 0, Weight: 1, Transit: 1},
		{From: 1, To: 1, Weight: 5, Transit: 1},
	})
	for _, forged := range [][]int64{
		{0, math.MinInt64},
		{math.MinInt64, 0},
		{math.MaxInt64, -1},
		{math.MaxInt64 - 3, math.MaxInt64},
	} {
		pi := append([]int64(nil), forged...)
		perArc, ok := scaledPerArc(g, 5, 1)
		if !ok {
			t.Fatal("λ = 5 must be in range")
		}
		if potentialsInRange(pi, g.NumNodes(), perArc) {
			t.Errorf("%v: potentials near ±2^63 passed the range check", forged)
		}
		res := Result{Mean: numeric.NewRat(5, 1), Cycle: []graph.ArcID{2}, Exact: true, potentials: pi}
		if err := certifyMeanProof(g, &res); !errors.Is(err, ErrCertification) {
			t.Errorf("%v: certified a value above λ* = 1: err = %v", forged, err)
		}
	}
	// The first forgery is exactly the one that fools an unguarded pass:
	// both arcs of the two-cycle wrap to large positive slacks.
	var counts counter.Counts
	if !feasiblePotentials(g, 5, 1, []int64{0, math.MinInt64}, &counts) {
		t.Error("expected the unguarded pass to be fooled by wrapping; the range check would then be untested")
	}
	if potentialsInRange([]int64{0}, 2, 10) || potentialsInRange(nil, 2, 10) {
		t.Error("potentials of the wrong length passed the range check")
	}
}

// TestPolicyPotentialsRejectsLooseCycle: at λ below a policy cycle's mean
// the cycle does not close, and Howard's fixed point would not trust the
// potentials.
func TestPolicyPotentialsRejectsLooseCycle(t *testing.T) {
	g := graph.FromArcs(3, []graph.Arc{
		{From: 0, To: 1, Weight: 2, Transit: 1},
		{From: 1, To: 2, Weight: 3, Transit: 1},
		{From: 2, To: 0, Weight: 4, Transit: 1},
	})
	policy := []graph.ArcID{0, 1, 2}
	pi := make([]int64, 3)
	var pc pcScratch
	if !policyPotentials(g, policy, 3, 1, pi, &pc) {
		t.Fatal("the triangle's mean is 3: potentials at λ = 3 must close")
	}
	if policyPotentials(g, policy, 2, 1, pi, &pc) {
		t.Error("potentials at λ = 2 closed a cycle of mean 3")
	}
}

// TestHowardFallsBackToBellmanFord: with a coarse improvement threshold,
// Howard stops on policies whose biases have not settled, so its own
// potentials fail the one-pass check. Bellman–Ford then proves the answer or
// finds a better cycle and resumes; either way the answer is λ*, and the
// potentials handed to the certifier still prove it in one pass.
func TestHowardFallsBackToBellmanFord(t *testing.T) {
	fellBack := false
	for seed := uint64(0); seed < 8; seed++ {
		g := sprandSCC(t, seed)
		ref, _, err := howardRun(g, Options{}, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := howardRun(g, Options{Epsilon: 1e9, Certify: true}, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Mean.Equal(ref.Mean) || !res.Exact {
			t.Fatalf("seed %d: coarse run gave %v, want %v", seed, res.Mean, ref.Mean)
		}
		if res.Counts.NegativeCycleChecks > 1 {
			fellBack = true
		}
		before := res.Counts
		if err := certifyMeanProof(g, &res); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := res.Counts.NegativeCycleChecks - before.NegativeCycleChecks; got != 1 {
			t.Errorf("seed %d: handed-over potentials needed %d checks, want 1", seed, got)
		}
	}
	if !fellBack {
		t.Error("no coarse run rejected its own potentials; the fallback went untested")
	}
}

// TestMadaniHandsOverPotentials: Madani's fixed-point values, negated, prove
// its answer in one pass, and only certified solves carry them.
func TestMadaniHandsOverPotentials(t *testing.T) {
	madani := madaniAlg{}
	for seed := uint64(0); seed < 5; seed++ {
		g := sprandSCC(t, seed)
		plain, err := madani.Solve(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if plain.potentials != nil {
			t.Fatalf("seed %d: uncertified madani kept potentials", seed)
		}
		res, err := madani.Solve(g, Options{Certify: true})
		if err != nil {
			t.Fatal(err)
		}
		before := res.Counts
		if err := certifyMeanProof(g, &res); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := res.Counts.NegativeCycleChecks - before.NegativeCycleChecks; got != 1 {
			t.Errorf("seed %d: madani's potentials needed %d checks, want 1", seed, got)
		}
	}
}

// TestKeepPotentials: potentials pass from a component solve to the
// certifier only when the component is the whole graph and any kernel is
// the identity.
func TestKeepPotentials(t *testing.T) {
	g := sprandSCC(t, 1)
	comps := graph.CyclicComponents(g)
	if !keepPotentials(g, comps, nil) {
		t.Error("a strongly connected graph's one component must keep its potentials")
	}
	two, err := gen.MultiSCC(2, 10, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	if keepPotentials(two, graph.CyclicComponents(two), nil) {
		t.Error("a two-component graph kept component potentials")
	}
	// A tail node outside the cycle: one component, but not every node.
	tail := graph.FromArcs(3, []graph.Arc{
		{From: 0, To: 1, Weight: 1, Transit: 1},
		{From: 1, To: 0, Weight: 1, Transit: 1},
		{From: 2, To: 0, Weight: 1, Transit: 1},
	})
	if keepPotentials(tail, graph.CyclicComponents(tail), nil) {
		t.Error("a component missing a node kept its potentials")
	}
	// Kernelized: an identity kernel aliases the component and keeps them;
	// a contracted one renumbers nodes and drops them.
	var scratch prep.Scratch
	if kern := scratch.Kernelize(comps[0].Graph, prep.Mean); !keepPotentials(g, comps, kern) {
		t.Error("an identity kernel dropped the potentials")
	}
	ring := gen.Cycle(12, 3)
	ringComps := graph.CyclicComponents(ring)
	if kern := scratch.Kernelize(ringComps[0].Graph, prep.Mean); keepPotentials(ring, ringComps, kern) {
		t.Error("a contracted kernel kept the potentials")
	}
}
