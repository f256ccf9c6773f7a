package ratio

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/numeric"
)

func TestNamesAndByName(t *testing.T) {
	names := Names()
	want := map[string]bool{
		"bhk": true, "burns": true, "dinkelbach": true, "expand": true, "howard": true,
		"megiddo": true, "ko": true, "lawler": true, "sternbrocot": true, "yto": true,
	}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for _, n := range names {
		if !want[n] {
			t.Fatalf("unexpected algorithm %q", n)
		}
		algo, err := ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		if algo.Name() != n && n != "expand" { // expand reports its inner solver
			t.Fatalf("ByName(%q).Name() = %q", n, algo.Name())
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
	// The racer resolves through ByName without appearing in Names().
	p, err := ByName("portfolio")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "portfolio" {
		t.Fatalf("portfolio Name() = %q", p.Name())
	}
	if pf, ok := p.(*RatioPortfolio); !ok || len(pf.Algorithms()) != 4 {
		t.Fatalf("ByName(portfolio) = %T", p)
	}
	if p, err = ByName("portfolio:howard+sternbrocot"); err != nil {
		t.Fatal(err)
	} else if pf := p.(*RatioPortfolio); len(pf.Algorithms()) != 2 {
		t.Fatalf("portfolio:howard+sternbrocot has %d members", len(pf.Algorithms()))
	}
	if _, err := ByName("portfolio:nope"); err == nil {
		t.Fatal("unknown portfolio member accepted")
	}
}

func TestExtractCriticalRatioCycle(t *testing.T) {
	// Two cycles: ratio 2 (optimal) and ratio 4.
	b := graph.NewBuilder(3, 4)
	b.AddNodes(3)
	b.AddArcTransit(0, 1, 3, 2)
	b.AddArcTransit(1, 0, 5, 2) // cycle ratio (3+5)/(2+2) = 2
	b.AddArcTransit(1, 2, 6, 1)
	b.AddArcTransit(2, 1, 2, 1) // cycle ratio (6+2)/2 = 4
	g := b.Build()

	cycle, err := extractCriticalRatioCycle(g, numeric.NewRat(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	r, ok := cycleRatio(g, cycle)
	if !ok || !r.Equal(numeric.NewRat(2, 1)) {
		t.Fatalf("extracted cycle ratio %v, want 2", r)
	}
	// ρ below the optimum: no tight cycle exists.
	if _, err := extractCriticalRatioCycle(g, numeric.NewRat(1, 1)); err == nil {
		t.Fatal("sub-optimal ρ accepted")
	}
	// ρ above the optimum: reduced graph has a negative cycle.
	if _, err := extractCriticalRatioCycle(g, numeric.NewRat(3, 1)); err == nil {
		t.Fatal("super-optimal ρ accepted")
	}
}

func TestCheckInputRejections(t *testing.T) {
	// Negative transit.
	b := graph.NewBuilder(2, 2)
	b.AddNodes(2)
	b.AddArcTransit(0, 1, 1, -1)
	b.AddArcTransit(1, 0, 1, 1)
	if err := checkInput(b.Build()); err == nil {
		t.Fatal("negative transit accepted")
	}
	// Not strongly connected.
	b2 := graph.NewBuilder(2, 1)
	b2.AddNodes(2)
	b2.AddArcTransit(0, 1, 1, 1)
	if err := checkInput(b2.Build()); err != ErrNotStronglyConnected {
		t.Fatalf("got %v", err)
	}
	// Empty.
	if err := checkInput(graph.NewBuilder(0, 0).Build()); err != ErrAcyclic {
		t.Fatalf("got %v", err)
	}
	// Single node with self-loop: fine.
	b3 := graph.NewBuilder(1, 1)
	b3.AddNodes(1)
	b3.AddArcTransit(0, 0, 4, 2)
	if err := checkInput(b3.Build()); err != nil {
		t.Fatalf("self-loop rejected: %v", err)
	}
	// Single node without self-loop.
	b4 := graph.NewBuilder(1, 0)
	b4.AddNodes(1)
	if err := checkInput(b4.Build()); err != ErrAcyclic {
		t.Fatalf("got %v", err)
	}
	// Zero-transit arcs: rejected when they close a cycle on their own,
	// accepted when they form a DAG.
	for _, c := range []struct {
		name string
		arcs []graph.Arc
		want error
	}{
		{"zero-transit self-loop", []graph.Arc{
			{From: 0, To: 1, Weight: 1, Transit: 1}, {From: 1, To: 0, Weight: 1, Transit: 1}, {From: 1, To: 1, Weight: 5, Transit: 0},
		}, ErrNonPositiveTransit},
		{"zero-transit 2-cycle", []graph.Arc{
			{From: 0, To: 1, Weight: 1, Transit: 0}, {From: 1, To: 0, Weight: 2, Transit: 0}, {From: 1, To: 2, Weight: 1, Transit: 1}, {From: 2, To: 0, Weight: 1, Transit: 1},
		}, ErrNonPositiveTransit},
		{"zero-transit diamond DAG", []graph.Arc{
			{From: 0, To: 1, Weight: 1, Transit: 0}, {From: 0, To: 2, Weight: 2, Transit: 0}, {From: 1, To: 3, Weight: 3, Transit: 0}, {From: 2, To: 3, Weight: 4, Transit: 0}, {From: 3, To: 0, Weight: 5, Transit: 2},
		}, nil},
	} {
		n := 0
		for _, a := range c.arcs {
			n = max(n, int(a.From)+1, int(a.To)+1)
		}
		if err := checkInput(graph.FromArcs(n, c.arcs)); err != c.want {
			t.Errorf("%s: got %v, want %v", c.name, err, c.want)
		}
	}
}

func TestNewExpandCustomInner(t *testing.T) {
	inner, err := core.ByName("yto")
	if err != nil {
		t.Fatal(err)
	}
	algo := NewExpand(inner)
	if algo.Name() != "expand-yto" {
		t.Fatalf("name = %q", algo.Name())
	}
	b := graph.NewBuilder(2, 2)
	b.AddNodes(2)
	b.AddArcTransit(0, 1, 3, 2)
	b.AddArcTransit(1, 0, 5, 2)
	res, err := algo.Solve(b.Build(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ratio.Equal(numeric.NewRat(2, 1)) {
		t.Fatalf("ratio = %v, want 2", res.Ratio)
	}
}

func TestEpsilonModeRatioLawler(t *testing.T) {
	b := graph.NewBuilder(2, 2)
	b.AddNodes(2)
	b.AddArcTransit(0, 1, 30, 2)
	b.AddArcTransit(1, 0, 50, 2)
	g := b.Build()
	algo, _ := ByName("lawler")
	res, err := algo.Solve(g, core.Options{Epsilon: 0.125})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact {
		t.Fatal("epsilon mode must be inexact")
	}
	if diff := res.Ratio.Float64() - 20; diff > 0.5 || diff < -0.5 {
		t.Fatalf("approximate ρ = %v, want ≈ 20", res.Ratio)
	}
}

// TestHowardMapsCoreErrors: ratio howard runs core's Howard, and the
// failures core reports in its own sentinels reach ratio callers as ratio's.
func TestHowardMapsCoreErrors(t *testing.T) {
	howard := mustRatioAlgo(t, "howard")
	if _, err := howard.Solve(stressGraph(t, 5), core.Options{MaxIterations: 1}); !errors.Is(err, ErrIterationLimit) {
		t.Errorf("one-iteration cap: err = %v, want ErrIterationLimit", err)
	}
	// ρ* = 2^62/7: its denominator times max|w| = 2^61 leaves int64.
	big := graph.FromArcs(2, []graph.Arc{
		{From: 0, To: 1, Weight: 1 << 61, Transit: 3},
		{From: 1, To: 0, Weight: 1 << 61, Transit: 4},
	})
	if _, err := howard.Solve(big, core.Options{}); !errors.Is(err, ErrNumericRange) {
		t.Errorf("out-of-range fixed point: err = %v, want ErrNumericRange", err)
	}
}

// TestParametricMapsCoreErrors: ratio ko and yto run core's KO and YTO
// through the adapter howard uses, so core's pivot cap and the ratio tree's
// range guard reach ratio callers as ratio's sentinels.
func TestParametricMapsCoreErrors(t *testing.T) {
	// |w| = 2^40 on 2 nodes puts λ0 near −2^41 and path costs near 2^42·t.
	big := graph.FromArcs(2, []graph.Arc{
		{From: 0, To: 1, Weight: 1 << 40, Transit: 1 << 20},
		{From: 1, To: 0, Weight: -1 << 40, Transit: 1},
	})
	for _, name := range []string{"ko", "yto"} {
		algo := mustRatioAlgo(t, name)
		if _, err := algo.Solve(stressGraph(t, 5), core.Options{MaxIterations: 1}); !errors.Is(err, ErrIterationLimit) {
			t.Errorf("%s: one-pivot cap: err = %v, want ErrIterationLimit", name, err)
		}
		if _, err := algo.Solve(big, core.Options{}); !errors.Is(err, ErrNumericRange) {
			t.Errorf("%s: overflowing initial tree: err = %v, want ErrNumericRange", name, err)
		}
	}
}
