package ratio

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/counter"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/ncd"
	"repro/internal/numeric"
	"repro/internal/obs"
)

// oracleBacked lists the solvers whose feasibility probes run through the
// shared parametric oracle (and therefore share its counter, cancellation,
// and ErrNumericRange semantics). ko/yto drive Karp-style parametric
// recurrences and expand delegates to a mean solver, so they only guarantee
// the generic counter contract.
var oracleBacked = []string{"bhk", "burns", "dinkelbach", "howard", "lawler", "megiddo", "sternbrocot"}

// twoCycleGraph has cycles of ratio 2 (optimal) and 4.
func twoCycleGraph() *graph.Graph {
	b := graph.NewBuilder(3, 4)
	b.AddNodes(3)
	b.AddArcTransit(0, 1, 3, 2)
	b.AddArcTransit(1, 0, 5, 2)
	b.AddArcTransit(1, 2, 6, 1)
	b.AddArcTransit(2, 1, 2, 1)
	return b.Build()
}

// TestRatioAdversarialRange pushes ±(2^31−1) weights and transits through
// every registered algorithm. The contract mirrors the core package's range
// tests: each solver either returns the exact certified optimum or a typed
// ErrNumericRange — never a silently wrapped wrong answer. Solvers
// legitimately differ on which side they land (sternbrocot's shifted probes
// exceed int64 where howard's certificate probes do not).
func TestRatioAdversarialRange(t *testing.T) {
	const maxW = int64(1)<<31 - 1
	ring := func(weights []int64, transits []int64) *graph.Graph {
		n := len(weights)
		b := graph.NewBuilder(n, n)
		b.AddNodes(n)
		for i := 0; i < n; i++ {
			b.AddArcTransit(graph.NodeID(i), graph.NodeID((i+1)%n), weights[i], transits[i])
		}
		return b.Build()
	}
	cases := []struct {
		name string
		g    *graph.Graph
		want numeric.Rat
	}{
		{"maxw-pos", ring([]int64{maxW, maxW - 1}, []int64{1, 1}), numeric.NewRat(2*maxW-1, 2)},
		{"maxw-mixed", ring([]int64{maxW, -maxW}, []int64{1, 1}), numeric.NewRat(0, 1)},
		{"maxw-neg", ring([]int64{-maxW, -maxW + 3}, []int64{1, 2}), numeric.NewRat(-2*maxW+3, 3)},
		{"maxt", ring([]int64{3, 4}, []int64{maxW, maxW - 2}), numeric.NewRat(7, 2*maxW-2)},
		{"maxw-maxt", ring([]int64{maxW, -maxW}, []int64{maxW, maxW}), numeric.NewRat(0, 1)},
		{"maxw-maxt-pos", ring([]int64{maxW, maxW}, []int64{maxW, maxW}), numeric.NewRat(1, 1)},
	}
	for _, name := range Names() {
		algo, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range cases {
			res, err := MinimumCycleRatio(tc.g, algo, core.Options{Certify: true})
			if err != nil {
				if !errors.Is(err, ErrNumericRange) {
					t.Errorf("%s/%s: err = %v, want nil or ErrNumericRange", name, tc.name, err)
				}
				continue
			}
			if !res.Ratio.Equal(tc.want) {
				t.Errorf("%s/%s: ρ* = %v, want %v", name, tc.name, res.Ratio, tc.want)
			}
			if res.Certificate == nil {
				t.Errorf("%s/%s: missing certificate", name, tc.name)
			}
		}
	}
}

// TestOracleCancellation checks that a fired cancellation token surfaces as
// core.ErrCanceled from the oracle itself and — identically — from every
// solver layered on it (satellite: the three formerly-private probe cores had
// diverging cancellation behavior; the shared oracle makes it uniform).
func TestOracleCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt, stop := core.Options{}.WithCancelContext(ctx)
	defer stop()

	g := twoCycleGraph()
	o := newOracle(g, opt, nil)
	defer o.Close()
	if _, _, err := o.Probe(2, 1); !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("oracle.Probe on canceled token: err = %v, want core.ErrCanceled", err)
	}

	for _, name := range oracleBacked {
		algo, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := algo.Solve(g, opt); !errors.Is(err, core.ErrCanceled) {
			t.Errorf("%s: err = %v, want core.ErrCanceled", name, err)
		}
	}
}

// TestOracleTightCycle pins the equality test's state discipline: TightCycle
// answers only for the parameters of the most recent converged probe.
func TestOracleTightCycle(t *testing.T) {
	g := twoCycleGraph()
	o := newOracle(g, core.Options{}, nil)
	defer o.Close()

	neg, _, err := o.Probe(2, 1)
	if err != nil || neg {
		t.Fatalf("Probe(2,1) = (%v, %v), want feasible", neg, err)
	}
	cycle, ok := o.TightCycle(2, 1)
	if !ok {
		t.Fatal("TightCycle(2,1) found nothing at ρ* = 2")
	}
	if r, ok := cycleRatio(g, cycle); !ok || !r.Equal(numeric.NewRat(2, 1)) {
		t.Fatalf("tight cycle ratio = %v, want 2", r)
	}
	// Parameter mismatch with the converged state: must refuse.
	if _, ok := o.TightCycle(3, 1); ok {
		t.Fatal("TightCycle(3,1) answered from stale (2,1) distances")
	}
	// Converged below the optimum: no tight cycle of that ratio exists.
	if neg, _, err = o.Probe(1, 1); err != nil || neg {
		t.Fatalf("Probe(1,1) = (%v, %v), want feasible", neg, err)
	}
	if _, ok := o.TightCycle(1, 1); ok {
		t.Fatal("TightCycle(1,1) found a cycle below ρ*")
	}
	// A negative probe leaves no converged distances behind.
	if neg, _, err = o.Probe(3, 1); err != nil || !neg {
		t.Fatalf("Probe(3,1) = (%v, %v), want negative cycle", neg, err)
	}
	if _, ok := o.TightCycle(3, 1); ok {
		t.Fatal("TightCycle answered after a non-converged probe")
	}
}

// TestOracleProbeAllocs verifies the pooled workspace: after the first probe,
// repeated feasibility probes allocate nothing.
func TestOracleProbeAllocs(t *testing.T) {
	g := twoCycleGraph()
	o := newOracle(g, core.Options{}, nil)
	defer o.Close()
	if _, _, err := o.Probe(1, 1); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		neg, _, err := o.Probe(1, 1)
		if err != nil || neg {
			t.Fatalf("Probe(1,1) = (%v, %v)", neg, err)
		}
	})
	if allocs != 0 {
		t.Errorf("feasible probe allocates %.1f objects per run, want 0", allocs)
	}
}

// TestOracleProbeTrace checks the ProbeEvent emission path: one event per
// probe, carrying the parameter, the verdict, and a positive pass count.
func TestOracleProbeTrace(t *testing.T) {
	var events []obs.ProbeEvent
	tr := &obs.Trace{OnProbe: func(ev obs.ProbeEvent) { events = append(events, ev) }}
	g := twoCycleGraph()
	o := newOracle(g, core.Options{Tracer: tr}, nil)
	defer o.Close()

	if _, _, err := o.Probe(2, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := o.Probe(3, 1); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("got %d probe events, want 2", len(events))
	}
	feas, neg := events[0], events[1]
	if feas.Num != 2 || feas.Den != 1 || feas.Negative || feas.Passes < 1 {
		t.Errorf("feasible event = %+v", feas)
	}
	if neg.Num != 3 || neg.Den != 1 || !neg.Negative || neg.Passes < 1 {
		t.Errorf("negative event = %+v", neg)
	}
}

// TestRatioCountsConsistency is the reflection-style counter contract: every
// registered algorithm reports non-zero work on the same graph, and the
// oracle-backed solvers report consistently scaled probe counters — each
// probe runs between 1 and n full passes of exactly m relaxations, so
//
//	m·checks ≤ Relaxations ≤ m·n·(checks + iterations + 1)
//
// (the upper slack covers howard/megiddo/burns' own per-iteration
// relaxation sweeps on top of the oracle's). Only the distance-floor exit
// can cut a first pass short, and it needs reduced weights near their
// pre-check bound; it never fires on this graph.
func TestRatioCountsConsistency(t *testing.T) {
	g := withTransits(gen.Complete(8, -20, 30, 1), 4)
	n, m := int64(g.NumNodes()), int64(g.NumArcs())
	backed := map[string]bool{}
	for _, name := range oracleBacked {
		backed[name] = true
	}
	for _, name := range Names() {
		algo, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := algo.Solve(g, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		v := reflect.ValueOf(res.Counts)
		var total int64
		for i := 0; i < v.NumField(); i++ {
			total += v.Field(i).Int()
		}
		if total == 0 {
			t.Errorf("%s: all counters zero: %+v", name, res.Counts)
		}
		if res.Counts.Iterations == 0 {
			t.Errorf("%s: Iterations = 0: %+v", name, res.Counts)
		}
		if !backed[name] {
			continue
		}
		checks := int64(res.Counts.NegativeCycleChecks)
		rel := int64(res.Counts.Relaxations)
		iters := int64(res.Counts.Iterations)
		if checks == 0 {
			t.Errorf("%s: oracle-backed solver reported no probes: %+v", name, res.Counts)
			continue
		}
		if rel < m*checks {
			t.Errorf("%s: Relaxations %d < m·checks = %d·%d: %+v", name, rel, m, checks, res.Counts)
		}
		if max := m * n * (checks + iters + 1); rel > max {
			t.Errorf("%s: Relaxations %d > m·n·(checks+iters+1) = %d: %+v", name, rel, max, res.Counts)
		}
	}
}

// referenceProbe is the probe without the parent-cycle exit: the oracle's
// Bellman–Ford in the same arc order, stopping only at a quiet pass, so a
// negative verdict always costs n passes. It returns the verdict, the passes
// run and the relaxations made.
func referenceProbe(g *graph.Graph, num, den int64) (neg bool, passes, relax int) {
	n := g.NumNodes()
	dist := make([]int64, n)
	for passes < n {
		passes++
		changed := false
		for _, a := range g.Arcs() {
			relax++
			if nd := dist[a.From] + den*a.Weight - num*a.Transit; nd < dist[a.To] {
				dist[a.To] = nd
				changed = true
			}
		}
		if !changed {
			return false, passes, relax
		}
	}
	return true, passes, relax
}

// TestOracleProbeMatchesBasic probes a grid of parameters on both sides of
// ρ* (and on it) on SPRAND graphs with transits 1–8. Every verdict must match
// ncd's paper-faithful Basic detector on the pre-scaled weights, and every
// negative witness must be a real cycle below num/den. The parent-cycle exit
// may only shorten negative probes: a converged probe must make exactly the
// passes and relaxations of the n-pass reference.
func TestOracleProbeMatchesBasic(t *testing.T) {
	howard, err := ByName("howard")
	if err != nil {
		t.Fatal(err)
	}
	var negatives, converged int
	for seed := uint64(1); seed <= 6; seed++ {
		base, err := gen.Sprand(gen.SprandConfig{N: 48, M: 192, MinWeight: -500, MaxWeight: 1000, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		g := withTransits(base, 8)
		opt, err := MinimumCycleRatio(g, howard, core.Options{Certify: true})
		if err != nil {
			t.Fatal(err)
		}
		p, q := opt.Ratio.Num(), opt.Ratio.Den()

		var ev obs.ProbeEvent
		var counts counter.Counts
		o := newOracle(g, core.Options{Tracer: &obs.Trace{OnProbe: func(e obs.ProbeEvent) { ev = e }}}, &counts)
		weights := make([]int64, g.NumArcs())
		for _, den := range []int64{1, 2, 7, q, 3 * q} {
			mid := p * den / q
			for num := mid - 3; num <= mid+3; num++ {
				label := fmt.Sprintf("seed %d, λ = %d/%d (ρ* = %v)", seed, num, den, opt.Ratio)
				for i, a := range g.Arcs() {
					weights[i] = den*a.Weight - num*a.Transit
				}
				_, want := ncd.Detect(g, weights, ncd.Basic, nil)
				before := counts.Relaxations
				neg, cycle, err := o.Probe(num, den)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if neg != want {
					t.Fatalf("%s: Probe says negative = %v, Basic detector says %v", label, neg, want)
				}
				relax := counts.Relaxations - before
				_, refPasses, refRelax := referenceProbe(g, num, den)
				if !neg {
					converged++
					if ev.Passes != refPasses || relax != refRelax {
						t.Errorf("%s: converged probe made %d passes / %d relaxations, reference %d / %d",
							label, ev.Passes, relax, refPasses, refRelax)
					}
					continue
				}
				negatives++
				if err := g.ValidateCycle(cycle); err != nil || len(cycle) == 0 {
					t.Fatalf("%s: witness %v is not a cycle: %v", label, cycle, err)
				}
				if c := den*g.CycleWeight(cycle) - num*g.CycleTransit(cycle); c >= 0 {
					t.Fatalf("%s: witness %v has den·w − num·t = %d, want < 0", label, cycle, c)
				}
				if !ev.Negative || ev.Passes < 1 || ev.Passes > refPasses || relax > refRelax {
					t.Errorf("%s: negative probe event %+v with %d relaxations, reference %d passes / %d",
						label, ev, relax, refPasses, refRelax)
				}
			}
		}
		o.Close()
	}
	if negatives == 0 || converged == 0 {
		t.Fatalf("grid one-sided: %d negative, %d converged probes", negatives, converged)
	}
}

// TestOracleLastPassScan covers a cycle that closes on pass n = 3, after the
// last power-of-two scan: the forced scan on pass n must still return it.
// Arcs run against the cycle's direction, so each pass extends the parent
// path by one arc.
func TestOracleLastPassScan(t *testing.T) {
	b := graph.NewBuilder(3, 3)
	b.AddNodes(3)
	b.AddArc(2, 0, 1)   // 0
	b.AddArc(1, 2, 1)   // 1
	b.AddArc(0, 1, -10) // 2: the cycle weighs −8
	g := b.Build()
	var ev obs.ProbeEvent
	o := newOracle(g, core.Options{Tracer: &obs.Trace{OnProbe: func(e obs.ProbeEvent) { ev = e }}}, nil)
	defer o.Close()
	neg, cycle, err := o.Probe(0, 1)
	if err != nil || !neg {
		t.Fatalf("Probe(0, 1) = (%v, %v), want a negative cycle", neg, err)
	}
	if err := g.ValidateCycle(cycle); err != nil || len(cycle) != 3 {
		t.Fatalf("witness %v: %v", cycle, err)
	}
	if ev.Passes != 3 {
		t.Errorf("probe stopped at pass %d, want 3", ev.Passes)
	}
}

// TestOracleDistanceFloor covers the overflow guard: a distance below
// −(n−1)·perArc proves a parent cycle, so the probe stops in mid-pass
// instead of relaxing further. Here perArc = 10 and n = 2, and arc 1 takes
// node 1 to −20 on the first pass, so arc 2 is never relaxed.
func TestOracleDistanceFloor(t *testing.T) {
	b := graph.NewBuilder(2, 3)
	b.AddNodes(2)
	b.AddArc(0, 0, -10) // 0
	b.AddArc(0, 1, -10) // 1
	b.AddArc(1, 0, 10)  // 2
	g := b.Build()
	var counts counter.Counts
	o := newOracle(g, core.Options{}, &counts)
	defer o.Close()
	neg, cycle, err := o.Probe(0, 1)
	if err != nil || !neg {
		t.Fatalf("Probe(0, 1) = (%v, %v), want a negative cycle", neg, err)
	}
	if len(cycle) != 1 || cycle[0] != 0 {
		t.Errorf("witness = %v, want the self-loop [0]", cycle)
	}
	if counts.Relaxations != 2 {
		t.Errorf("Relaxations = %d, want 2: the guard should stop before arc 2", counts.Relaxations)
	}
}

// TestSternBrocotProbeCostPinned pins the parent-cycle exit end to end:
// certified sternbrocot on one fixed n = 256, m = 1024 SPRAND graph must
// average at most 8 passes (8·m relaxations) per probe. Running every
// negative probe for n passes costs about 87·m.
func TestSternBrocotProbeCostPinned(t *testing.T) {
	base, err := gen.Sprand(gen.SprandConfig{N: 256, M: 1024, MinWeight: -5000, MaxWeight: 10000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := withTransits(base, 8)
	algo, err := ByName("sternbrocot")
	if err != nil {
		t.Fatal(err)
	}
	res, err := MinimumCycleRatio(g, algo, core.Options{Certify: true})
	if err != nil {
		t.Fatal(err)
	}
	m, checks, relax := g.NumArcs(), res.Counts.NegativeCycleChecks, res.Counts.Relaxations
	t.Logf("%d probes, %d relaxations (%.1f·m per probe)", checks, relax, float64(relax)/float64(m*checks))
	if checks == 0 || relax > 8*m*checks {
		t.Errorf("%d relaxations over %d probes = %.1f·m per probe, pinned at <= 8·m",
			relax, checks, float64(relax)/float64(m*checks))
	}
}
