package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/ncd"
	"repro/internal/numeric"
	"repro/internal/pq"
	"repro/internal/verify"
)

func mustAlgo(t *testing.T, name string) Algorithm {
	t.Helper()
	algo, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return algo
}

func TestRegistry(t *testing.T) {
	names := Names()
	want := []string{"approx", "burns", "dg", "dg2", "ho", "ho2", "howard", "karp", "karp2", "ko", "lawler", "madani", "oa1", "oa2", "yto"}
	if len(names) != len(want) {
		t.Fatalf("names = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
	for _, a := range All() {
		fresh, err := ByName(a.Name())
		if err != nil || fresh.Name() != a.Name() {
			t.Fatalf("registry roundtrip broken for %s", a.Name())
		}
	}
}

func TestSolvePreconditions(t *testing.T) {
	// Not strongly connected.
	b := graph.NewBuilder(3, 2)
	b.AddNodes(3)
	b.AddArc(0, 1, 1)
	b.AddArc(1, 2, 1)
	dag := b.Build()
	// Single node, no self-loop.
	b2 := graph.NewBuilder(1, 0)
	b2.AddNodes(1)
	lone := b2.Build()
	// Empty graph.
	empty := graph.NewBuilder(0, 0).Build()

	for _, algo := range All() {
		if _, err := algo.Solve(dag, Options{}); !errors.Is(err, ErrNotStronglyConnected) {
			t.Errorf("%s on DAG: %v, want ErrNotStronglyConnected", algo.Name(), err)
		}
		if _, err := algo.Solve(lone, Options{}); !errors.Is(err, ErrAcyclic) {
			t.Errorf("%s on lone node: %v, want ErrAcyclic", algo.Name(), err)
		}
		if _, err := algo.Solve(empty, Options{}); !errors.Is(err, ErrAcyclic) {
			t.Errorf("%s on empty graph: %v, want ErrAcyclic", algo.Name(), err)
		}
	}
}

func TestSingleSelfLoop(t *testing.T) {
	b := graph.NewBuilder(1, 1)
	b.AddNodes(1)
	b.AddArc(0, 0, -7)
	g := b.Build()
	for _, algo := range All() {
		res, err := algo.Solve(g, Options{})
		if err != nil {
			t.Fatalf("%s: %v", algo.Name(), err)
		}
		if !res.Mean.Equal(numeric.FromInt(-7)) {
			t.Errorf("%s: λ* = %v, want -7", algo.Name(), res.Mean)
		}
		if len(res.Cycle) != 1 {
			t.Errorf("%s: cycle %v, want the self-loop", algo.Name(), res.Cycle)
		}
	}
}

func TestTwoCycleTie(t *testing.T) {
	// Parallel arcs in both directions: the optimum mixes the two cheap
	// arcs, (4+4)/2 = 4, and several distinct cycles tie at higher means.
	b := graph.NewBuilder(2, 4)
	b.AddNodes(2)
	b.AddArc(0, 1, 4)
	b.AddArc(1, 0, 6)
	b.AddArc(0, 1, 6)
	b.AddArc(1, 0, 4)
	g := b.Build()
	for _, algo := range All() {
		res, err := algo.Solve(g, Options{})
		if err != nil {
			t.Fatalf("%s: %v", algo.Name(), err)
		}
		if !res.Mean.Equal(numeric.FromInt(4)) {
			t.Errorf("%s: λ* = %v, want 4", algo.Name(), res.Mean)
		}
		if err := verify.CheckCycleIsOptimal(g, res.Mean, res.Cycle); err != nil {
			t.Errorf("%s: %v", algo.Name(), err)
		}
	}
}

func TestUniformWeights(t *testing.T) {
	// All weights equal: λ* equals that weight; exercises Lawler's
	// minW == maxW short-circuit and degenerate breakpoints elsewhere.
	g := gen.Cycle(9, 13)
	for _, algo := range All() {
		res, err := algo.Solve(g, Options{})
		if err != nil {
			t.Fatalf("%s: %v", algo.Name(), err)
		}
		if !res.Mean.Equal(numeric.FromInt(13)) {
			t.Errorf("%s: λ* = %v, want 13", algo.Name(), res.Mean)
		}
	}
}

func TestNegativeAndZeroWeights(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		g, err := gen.Sprand(gen.SprandConfig{N: 9, M: 22, MinWeight: -50, MaxWeight: 0, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := verify.BruteForceMinMean(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range All() {
			res, err := algo.Solve(g, Options{})
			if err != nil {
				t.Fatalf("%s seed=%d: %v", algo.Name(), seed, err)
			}
			if !res.Mean.Equal(want) {
				t.Errorf("%s seed=%d: %v want %v", algo.Name(), seed, res.Mean, want)
			}
		}
	}
}

func TestWeightRangeGuard(t *testing.T) {
	b := graph.NewBuilder(2, 2)
	b.AddNodes(2)
	b.AddArc(0, 1, math.MaxInt64/2)
	b.AddArc(1, 0, 1)
	g := b.Build()
	for _, algo := range All() {
		if _, err := algo.Solve(g, Options{}); !errors.Is(err, ErrWeightRange) {
			t.Errorf("%s: %v, want ErrWeightRange", algo.Name(), err)
		}
	}
}

func TestWeightRangeBoundary(t *testing.T) {
	// ±(2^31−1) is the documented limit and must be admitted exactly;
	// one past it must be rejected. Exercises both sides of the guard.
	mk := func(w int64) *graph.Graph {
		b := graph.NewBuilder(2, 2)
		b.AddNodes(2)
		b.AddArc(0, 1, w)
		b.AddArc(1, 0, -w)
		return b.Build()
	}
	for _, w := range []int64{MaxWeightMagnitude, -MaxWeightMagnitude} {
		g := mk(w)
		if err := checkSolveInput(g); err != nil {
			t.Fatalf("weight %d rejected: %v", w, err)
		}
		res, err := howardAlg{}.Solve(g, Options{})
		if err != nil {
			t.Fatalf("howard at weight %d: %v", w, err)
		}
		if !res.Exact || !res.Mean.IsZero() {
			t.Fatalf("howard at weight %d: mean %v, want exact 0", w, res.Mean)
		}
	}
	for _, w := range []int64{MaxWeightMagnitude + 1, -(MaxWeightMagnitude + 1)} {
		if err := checkSolveInput(mk(w)); !errors.Is(err, ErrWeightRange) {
			t.Fatalf("weight %d: %v, want ErrWeightRange", w, err)
		}
	}
}

func TestMinimumCycleMeanDriver(t *testing.T) {
	// MultiSCC: minimum over blocks. Howard on the full graph via driver
	// must match brute force over the whole graph.
	g, err := gen.MultiSCC(3, 6, 14, 11)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := verify.BruteForceMinMean(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range All() {
		res, err := MinimumCycleMean(g, algo, Options{})
		if err != nil {
			t.Fatalf("%s: %v", algo.Name(), err)
		}
		if !res.Mean.Equal(want) {
			t.Errorf("%s: %v want %v", algo.Name(), res.Mean, want)
		}
		if err := verify.CheckCycleIsOptimal(g, res.Mean, res.Cycle); err != nil {
			t.Errorf("%s: cycle maps badly across SCC extraction: %v", algo.Name(), err)
		}
	}
	// Acyclic input.
	b := graph.NewBuilder(2, 1)
	b.AddNodes(2)
	b.AddArc(0, 1, 5)
	if _, err := MinimumCycleMean(b.Build(), mustAlgo(t, "howard"), Options{}); !errors.Is(err, ErrAcyclic) {
		t.Fatalf("driver on DAG: %v, want ErrAcyclic", err)
	}
}

func TestMaximumCycleMean(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		g, err := gen.Sprand(gen.SprandConfig{N: 8, M: 20, MinWeight: -30, MaxWeight: 30, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := verify.BruteForceMaxMean(g)
		if err != nil {
			t.Fatal(err)
		}
		res, err := MaximumCycleMean(g, mustAlgo(t, "yto"), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Mean.Equal(want) {
			t.Errorf("seed %d: max mean %v, want %v", seed, res.Mean, want)
		}
	}
}

func TestCriticalSubgraph(t *testing.T) {
	// Triangle mean 2 plus a worse 2-cycle: critical subgraph must contain
	// the triangle's arcs and no arc of the worse cycle that is not tight.
	b := graph.NewBuilder(3, 5)
	b.AddNodes(3)
	b.AddArc(0, 1, 1)
	b.AddArc(1, 2, 2)
	b.AddArc(2, 0, 3)
	b.AddArc(1, 0, 99)
	b.AddArc(0, 0, 50)
	g := b.Build()

	res, err := mustAlgo(t, "howard").Solve(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	critical, sub, err := CriticalSubgraph(g, res.Mean)
	if err != nil {
		t.Fatal(err)
	}
	inCrit := make(map[graph.ArcID]bool)
	for _, id := range critical {
		inCrit[id] = true
	}
	for _, id := range []graph.ArcID{0, 1, 2} {
		if !inCrit[id] {
			t.Errorf("triangle arc %d not critical", id)
		}
	}
	if inCrit[3] || inCrit[4] {
		t.Errorf("non-tight arcs marked critical: %v", critical)
	}
	if !graph.HasCycle(sub) {
		t.Error("critical subgraph must contain the critical cycle")
	}
	// Infeasible λ must error.
	if _, _, err := CriticalSubgraph(g, res.Mean.Add(numeric.NewRat(1, 1))); err == nil {
		t.Error("infeasible λ accepted")
	}
}

func TestHeapKindsGiveSameAnswer(t *testing.T) {
	g, err := gen.Sprand(gen.SprandConfig{N: 60, M: 180, MinWeight: 1, MaxWeight: 10000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ko", "yto"} {
		var ref numeric.Rat
		for i, kind := range []pq.Kind{pq.Fibonacci, pq.Binary, pq.Pairing, pq.Linear} {
			res, err := mustAlgo(t, name).Solve(g, Options{HeapKind: kind})
			if err != nil {
				t.Fatalf("%s/%v: %v", name, kind, err)
			}
			if i == 0 {
				ref = res.Mean
			} else if !res.Mean.Equal(ref) {
				t.Errorf("%s/%v: %v != %v", name, kind, res.Mean, ref)
			}
		}
	}
}

func TestEpsilonModeApproximation(t *testing.T) {
	g, err := gen.Sprand(gen.SprandConfig{N: 40, M: 120, MinWeight: 1, MaxWeight: 10000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := mustAlgo(t, "howard").Solve(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"lawler", "oa1", "oa2"} {
		res, err := mustAlgo(t, name).Solve(g, Options{Epsilon: 0.25})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Exact {
			t.Errorf("%s: epsilon mode must report Exact=false", name)
		}
		if diff := math.Abs(res.Mean.Float64() - exact.Mean.Float64()); diff > 0.5 {
			t.Errorf("%s: approximate λ %v is %v away from exact %v", name, res.Mean, diff, exact.Mean)
		}
	}
}

// TestLawlerFineEpsilonKeepsExactGrid: an ε whose grid ⌈1/ε⌉ is too fine
// for int64, or for the scaled arithmetic on these weights, asks for more
// than the exact n² + 1 grid gives, so Lawler must return the exact λ*
// rather than a range error or a grid clamped to spacing 1/2.
func TestLawlerFineEpsilonKeepsExactGrid(t *testing.T) {
	g, err := gen.Sprand(gen.SprandConfig{N: 50, M: 200, MinWeight: -1000, MaxWeight: 1000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := mustAlgo(t, "howard").Solve(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{1e-15, 1e-18, 1e-19, 1e-30} {
		res, err := mustAlgo(t, "lawler").Solve(g, Options{Epsilon: eps})
		if err != nil {
			t.Errorf("ε = %g: %v", eps, err)
			continue
		}
		if !res.Exact || !res.Mean.Equal(exact.Mean) {
			t.Errorf("ε = %g: λ = %v (exact %v), want howard's %v exactly", eps, res.Mean, res.Exact, exact.Mean)
		}
	}
}

func TestParallelArcsAndSelfLoops(t *testing.T) {
	// Parallel arcs where the cheaper one matters, plus a competing
	// self-loop that is optimal.
	b := graph.NewBuilder(2, 5)
	b.AddNodes(2)
	b.AddArc(0, 1, 10)
	b.AddArc(0, 1, 2)
	b.AddArc(1, 0, 4)
	b.AddArc(1, 1, 2) // λ* = 2
	b.AddArc(0, 0, 9)
	g := b.Build()
	for _, algo := range All() {
		res, err := algo.Solve(g, Options{})
		if err != nil {
			t.Fatalf("%s: %v", algo.Name(), err)
		}
		if !res.Mean.Equal(numeric.FromInt(2)) {
			t.Errorf("%s: λ* = %v, want 2", algo.Name(), res.Mean)
		}
	}
}

// TestPropertyAllAlgorithmsAgree is the quick-check version of the central
// invariant, with negative weights and multigraph features enabled.
func TestPropertyAllAlgorithmsAgree(t *testing.T) {
	algos := All()
	f := func(seed uint64, nRaw, extra uint8) bool {
		n := int(nRaw)%8 + 2
		m := n + int(extra)%20
		g, err := gen.Sprand(gen.SprandConfig{N: n, M: m, MinWeight: -12, MaxWeight: 12, Seed: seed})
		if err != nil {
			return false
		}
		want, _, err := verify.BruteForceMinMean(g)
		if err != nil {
			return false
		}
		for _, algo := range algos {
			res, err := algo.Solve(g, Options{})
			if err != nil || !res.Mean.Equal(want) {
				t.Logf("%s on seed=%d n=%d m=%d: res=%v err=%v want=%v", algo.Name(), seed, n, m, res.Mean, err, want)
				return false
			}
			if verify.CheckCycleIsOptimal(g, res.Mean, res.Cycle) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestStructuredFamilies runs all algorithms on non-SPRAND textures.
func TestStructuredFamilies(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"complete": gen.Complete(10, -5, 20, 2),
		"torus":    gen.Torus(4, 4, 1, 50, 3),
		"cycle":    gen.Cycle(17, 100),
	}
	for name, g := range graphs {
		want, _, err := verify.BruteForceMinMean(g)
		if err != nil {
			t.Fatalf("%s oracle: %v", name, err)
		}
		for _, algo := range All() {
			res, err := algo.Solve(g, Options{})
			if err != nil {
				t.Fatalf("%s on %s: %v", algo.Name(), name, err)
			}
			if !res.Mean.Equal(want) {
				t.Errorf("%s on %s: %v want %v", algo.Name(), name, res.Mean, want)
			}
		}
	}
}

func TestResultLambdaHelper(t *testing.T) {
	r := Result{Mean: numeric.NewRat(7, 2)}
	if r.Lambda() != 3.5 {
		t.Fatalf("Lambda() = %v", r.Lambda())
	}
}

func TestCountersPopulated(t *testing.T) {
	g, err := gen.Sprand(gen.SprandConfig{N: 32, M: 96, MinWeight: 1, MaxWeight: 100, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	type check struct {
		name string
		ok   func(Result) bool
	}
	for _, c := range []check{
		{"howard", func(r Result) bool { return r.Counts.Iterations > 0 && r.Counts.CyclesExamined > 0 }},
		{"ko", func(r Result) bool { return r.Counts.Iterations > 0 && r.Counts.HeapOps() > 0 }},
		{"yto", func(r Result) bool { return r.Counts.Iterations > 0 && r.Counts.HeapOps() > 0 }},
		{"karp", func(r Result) bool { return r.Counts.ArcsVisited > 0 }},
		{"dg", func(r Result) bool { return r.Counts.ArcsVisited > 0 }},
		{"lawler", func(r Result) bool { return r.Counts.NegativeCycleChecks > 0 }},
		{"burns", func(r Result) bool { return r.Counts.Iterations > 0 }},
		{"madani", func(r Result) bool { return r.Counts.Iterations > 0 && r.Counts.CyclesExamined > 0 }},
		{"ho", func(r Result) bool { return r.Counts.Iterations > 0 }},
	} {
		res, err := mustAlgo(t, c.name).Solve(g, Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !c.ok(res) {
			t.Errorf("%s: counters not populated: %+v", c.name, res.Counts)
		}
	}
}

func TestHOTerminatesEarlyOnDenseGraphs(t *testing.T) {
	g, err := gen.Sprand(gen.SprandConfig{N: 256, M: 768, MinWeight: 1, MaxWeight: 10000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := mustAlgo(t, "ho").Solve(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.Iterations >= 256 {
		t.Errorf("HO did not terminate early: k = %d", res.Counts.Iterations)
	}
}

func TestKODetectsHamiltonianCycleImmediately(t *testing.T) {
	// On the pure cycle, the single cycle is found after few pivots and
	// Howard converges in one iteration (paper's m = n column behavior).
	g := gen.Cycle(200, 7)
	for _, name := range []string{"ko", "yto", "howard"} {
		res, err := mustAlgo(t, name).Solve(g, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Mean.Equal(numeric.FromInt(7)) {
			t.Fatalf("%s: λ* = %v", name, res.Mean)
		}
		if res.Counts.Iterations > 5 {
			t.Errorf("%s: %d iterations on the pure cycle", name, res.Counts.Iterations)
		}
	}
}

// TestLawlerNCDMethods: Lawler must return identical exact answers with
// every negative-cycle detector.
func TestLawlerNCDMethods(t *testing.T) {
	g, err := gen.Sprand(gen.SprandConfig{N: 48, M: 144, MinWeight: 1, MaxWeight: 10000, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	var ref numeric.Rat
	for i, method := range []ncd.Method{ncd.EarlyExit, ncd.Basic, ncd.Tarjan} {
		res, err := mustAlgo(t, "lawler").Solve(g, Options{NCD: method})
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if !res.Exact {
			t.Fatalf("%v: not exact", method)
		}
		if i == 0 {
			ref = res.Mean
		} else if !res.Mean.Equal(ref) {
			t.Fatalf("%v: %v != %v", method, res.Mean, ref)
		}
		if err := verify.CheckCycleIsOptimal(g, res.Mean, res.Cycle); err != nil {
			t.Fatalf("%v: %v", method, err)
		}
	}
}

// TestLargeScaleCrossCheck is a heavier cross-check at Table 2's smallest
// production size; skipped in -short mode.
func TestLargeScaleCrossCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("large graphs skipped in -short mode")
	}
	g, err := gen.Sprand(gen.SprandConfig{N: 512, M: 1536, MinWeight: 1, MaxWeight: 10000, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	var ref numeric.Rat
	for i, algo := range All() {
		res, err := algo.Solve(g, Options{})
		if err != nil {
			t.Fatalf("%s: %v", algo.Name(), err)
		}
		if i == 0 {
			ref = res.Mean
			if err := verify.CheckCycleIsOptimal(g, res.Mean, res.Cycle); err != nil {
				t.Fatal(err)
			}
		} else if !res.Mean.Equal(ref) {
			t.Errorf("%s: %v != %v", algo.Name(), res.Mean, ref)
		}
	}
}

// TestHowardIterationsWithinAlphaBound checks the paper's new bound
// empirically: Howard's iteration count is at most n·α (α = number of
// simple cycles) and in practice drastically below it (§4.3's "drastically
// small" observation).
func TestHowardIterationsWithinAlphaBound(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		g, err := gen.Sprand(gen.SprandConfig{N: 10, M: 25, MinWeight: 1, MaxWeight: 100, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		alpha, err := verify.CountCycles(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := mustAlgo(t, "howard").Solve(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		iters := res.Counts.Iterations
		if iters > g.NumNodes()*alpha {
			t.Errorf("seed %d: %d iterations exceeds n·α = %d", seed, iters, g.NumNodes()*alpha)
		}
		if iters > alpha && alpha > 3 {
			t.Logf("seed %d: iterations %d vs α %d (within the bound but unusually high)", seed, iters, alpha)
		}
	}
}

// TestExhaustiveThreeNodeGraphs enumerates every directed graph on three
// nodes (all 2^9 adjacency patterns, including self-loops, with varied
// deterministic weights), keeps the ones with at least one cycle, and
// checks every algorithm against the brute-force oracle on each — a small
// universe covered completely rather than sampled.
func TestExhaustiveThreeNodeGraphs(t *testing.T) {
	weights := []int64{-7, 3, 11, -2, 5, 0, 9, -4, 6}
	cyclic := 0
	for mask := 1; mask < 1<<9; mask++ {
		arcs := make([]graph.Arc, 0, 9)
		for bit := 0; bit < 9; bit++ {
			if mask&(1<<bit) == 0 {
				continue
			}
			arcs = append(arcs, graph.Arc{
				From:    graph.NodeID(bit / 3),
				To:      graph.NodeID(bit % 3),
				Weight:  weights[bit],
				Transit: 1,
			})
		}
		g := graph.FromArcs(3, arcs)
		if !graph.HasCycle(g) {
			continue
		}
		cyclic++
		want, _, err := verify.BruteForceMinMean(g)
		if err != nil {
			t.Fatalf("mask %03o: oracle: %v", mask, err)
		}
		for _, algo := range All() {
			res, err := MinimumCycleMean(g, algo, Options{})
			if err != nil {
				t.Fatalf("mask %03o: %s: %v", mask, algo.Name(), err)
			}
			if !res.Mean.Equal(want) {
				t.Errorf("mask %03o: %s: %v want %v", mask, algo.Name(), res.Mean, want)
			}
			if err := verify.CheckCycleIsOptimal(g, res.Mean, res.Cycle); err != nil {
				t.Errorf("mask %03o: %s: %v", mask, algo.Name(), err)
			}
		}
	}
	if cyclic < 300 {
		t.Fatalf("only %d cyclic graphs enumerated; expected hundreds", cyclic)
	}
}

// TestKOAndYTOPivotParity asserts the §4.2/§4.3 structural claims as unit
// facts: KO and YTO perform the same pivots (equal iteration and
// extract-min counts) while YTO never does more inserts.
func TestKOAndYTOPivotParity(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		g, err := gen.Sprand(gen.SprandConfig{N: 120, M: 360, MinWeight: 1, MaxWeight: 10000, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		ko, err := mustAlgo(t, "ko").Solve(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		yto, err := mustAlgo(t, "yto").Solve(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if ko.Counts.Iterations != yto.Counts.Iterations {
			t.Errorf("seed %d: pivots differ: %d vs %d", seed, ko.Counts.Iterations, yto.Counts.Iterations)
		}
		if ko.Counts.HeapExtractMins != yto.Counts.HeapExtractMins {
			t.Errorf("seed %d: extract-mins differ: %d vs %d", seed, ko.Counts.HeapExtractMins, yto.Counts.HeapExtractMins)
		}
		if yto.Counts.HeapInserts > ko.Counts.HeapInserts {
			t.Errorf("seed %d: YTO did more inserts (%d) than KO (%d)", seed, yto.Counts.HeapInserts, ko.Counts.HeapInserts)
		}
	}
}

// TestPlantedOptimumAtScale solves graphs with a construction-guaranteed
// optimum at sizes far beyond the enumeration oracle's reach.
func TestPlantedOptimumAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("large planted graphs skipped in -short mode")
	}
	for seed := uint64(1); seed <= 3; seed++ {
		g, mu, err := gen.PlantedMinMean(2048, 6144, 17, 5, 1000, seed)
		if err != nil {
			t.Fatal(err)
		}
		want := numeric.FromInt(mu)
		for _, name := range []string{"howard", "yto", "ko", "burns", "lawler", "karp2", "ho2", "dg2"} {
			res, err := mustAlgo(t, name).Solve(g, Options{})
			if err != nil {
				t.Fatalf("%s seed=%d: %v", name, seed, err)
			}
			if !res.Mean.Equal(want) {
				t.Errorf("%s seed=%d: λ* = %v, want planted %v", name, seed, res.Mean, want)
			}
			if int64(len(res.Cycle)) != 17 {
				t.Errorf("%s seed=%d: cycle length %d, want the planted 17", name, seed, len(res.Cycle))
			}
		}
	}
}
