package core

import (
	"errors"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// reweight returns a copy of g with every arc weight shifted by delta(id) —
// the structure (endpoints, transit, arc order) is untouched, so a Session
// must treat the result as the same fingerprint.
func reweight(g *graph.Graph, delta func(int) int64) *graph.Graph {
	arcs := append([]graph.Arc(nil), g.Arcs()...)
	for i := range arcs {
		arcs[i].Weight += delta(i)
	}
	return graph.FromArcs(g.NumNodes(), arcs)
}

func TestSessionMatchesMinimumCycleMean(t *testing.T) {
	howard := mustAlgo(t, "howard")
	graphs := []*graph.Graph{
		gen.Cycle(10, 7),
		gen.Torus(5, 6, -50, 50, 3),
		gen.Complete(12, -100, 100, 4),
	}
	if g, err := gen.Sprand(gen.SprandConfig{N: 60, M: 180, MinWeight: -1000, MaxWeight: 1000, Seed: 11}); err == nil {
		graphs = append(graphs, g)
	}
	if g, err := gen.MultiSCC(4, 15, 40, 21); err == nil {
		graphs = append(graphs, g)
	}
	if g, err := gen.Chain(gen.ChainConfig{CoreN: 8, Chains: 4, ChainLen: 25, MinWeight: -20, MaxWeight: 20, SelfLoops: 2, Seed: 5}); err == nil {
		graphs = append(graphs, g)
	}

	s := NewSession(Options{})
	for i, g := range graphs {
		want, err := MinimumCycleMean(g, howard, Options{})
		if err != nil {
			t.Fatalf("graph %d: reference solve: %v", i, err)
		}
		got, err := s.Solve(g)
		if err != nil {
			t.Fatalf("graph %d: session solve: %v", i, err)
		}
		if !got.Mean.Equal(want.Mean) {
			t.Errorf("graph %d: session mean %v, want %v", i, got.Mean, want.Mean)
		}
		if err := g.ValidateCycle(got.Cycle); err != nil {
			t.Errorf("graph %d: session cycle invalid: %v", i, err)
		}
	}
}

func TestSessionWarmStartAfterWeightUpdates(t *testing.T) {
	howard := mustAlgo(t, "howard")
	g, err := gen.Sprand(gen.SprandConfig{N: 100, M: 400, MinWeight: -500, MaxWeight: 500, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(Options{})
	if _, err := s.Solve(g); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.WarmHits != 0 || st.WarmMisses == 0 {
		t.Fatalf("first solve must be cold: %+v", st)
	}

	// A sequence of weight perturbations on the same structure: every
	// subsequent component solve must hit the cache, and every result must
	// match a cold reference solve exactly.
	for round := 1; round <= 5; round++ {
		pg := reweight(g, func(i int) int64 { return int64((i*round)%21 - 10) })
		want, err := MinimumCycleMean(pg, howard, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Solve(pg)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Mean.Equal(want.Mean) {
			t.Fatalf("round %d: warm mean %v, want %v", round, got.Mean, want.Mean)
		}
		if err := pg.ValidateCycle(got.Cycle); err != nil {
			t.Fatalf("round %d: warm cycle invalid: %v", round, err)
		}
	}
	st = s.Stats()
	if st.WarmHits == 0 {
		t.Errorf("weight-only updates never hit the policy cache: %+v", st)
	}
	if st.Solves != 6 {
		t.Errorf("Solves = %d, want 6", st.Solves)
	}
}

func TestSessionInvalidationOnStructuralChange(t *testing.T) {
	howard := mustAlgo(t, "howard")
	g, err := gen.Sprand(gen.SprandConfig{N: 50, M: 150, MinWeight: 1, MaxWeight: 100, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(Options{})
	if _, err := s.Solve(g); err != nil {
		t.Fatal(err)
	}
	misses := s.Stats().WarmMisses

	// Structural changes of every kind: added arc, removed arc, rewired
	// endpoint, changed transit. Each must change the fingerprint, so the
	// solve runs cold (stale policies are never consulted), and each result
	// must match the reference.
	arcs := g.Arcs()
	variants := []*graph.Graph{
		// Arc added.
		graph.FromArcs(g.NumNodes(), append(append([]graph.Arc(nil), arcs...), graph.Arc{From: 0, To: graph.NodeID(g.NumNodes() / 2), Weight: 5, Transit: 1})),
		// Arc removed.
		graph.FromArcs(g.NumNodes(), append([]graph.Arc(nil), arcs[:len(arcs)-1]...)),
	}
	// Endpoint rewired.
	rw := append([]graph.Arc(nil), arcs...)
	rw[len(rw)-1].To = (rw[len(rw)-1].To + 1) % graph.NodeID(g.NumNodes())
	if rw[len(rw)-1].To == rw[len(rw)-1].From {
		rw[len(rw)-1].To = (rw[len(rw)-1].To + 1) % graph.NodeID(g.NumNodes())
	}
	variants = append(variants, graph.FromArcs(g.NumNodes(), rw))
	// Transit changed (structural for the ratio view of the graph).
	tr := append([]graph.Arc(nil), arcs...)
	tr[0].Transit = 3
	variants = append(variants, graph.FromArcs(g.NumNodes(), tr))

	for i, vg := range variants {
		before := s.Stats()
		got, err := s.Solve(vg)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		after := s.Stats()
		if after.WarmHits != before.WarmHits {
			t.Errorf("variant %d: structural change hit the cache (hits %d -> %d)", i, before.WarmHits, after.WarmHits)
		}
		if after.WarmMisses <= misses {
			t.Errorf("variant %d: expected a cold component solve", i)
		}
		want, err := MinimumCycleMean(vg, howard, Options{})
		if err != nil {
			t.Fatalf("variant %d: reference: %v", i, err)
		}
		if !got.Mean.Equal(want.Mean) {
			t.Errorf("variant %d: mean %v, want %v", i, got.Mean, want.Mean)
		}
		misses = after.WarmMisses
	}
}

func TestSessionReset(t *testing.T) {
	g := gen.Cycle(20, 3)
	s := NewSession(Options{})
	if _, err := s.Solve(g); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(g); err != nil {
		t.Fatal(err)
	}
	if s.Stats().WarmHits == 0 {
		t.Fatal("repeat solve must warm-start")
	}
	s.Reset()
	if _, err := s.Solve(g); err != nil {
		t.Fatal(err)
	}
	if hits := s.Stats().WarmHits; hits != 1 {
		t.Errorf("post-Reset solve must be cold (hits = %d, want 1)", hits)
	}
}

func TestSessionStatsCountFailedSolves(t *testing.T) {
	// Regression: Solves used to be incremented only on the success path, so
	// a failed call (acyclic input, certification failure, numeric overflow)
	// left Solves < number of Solve invocations and there was no way to tell
	// how many calls errored. Every call must count, and failures must be
	// tallied in Errors.
	b := graph.NewBuilder(3, 2)
	b.AddNodes(3)
	b.AddArc(0, 1, 1)
	b.AddArc(1, 2, 1)
	dag := b.Build()

	s := NewSession(Options{})
	if _, err := s.Solve(dag); !errors.Is(err, ErrAcyclic) {
		t.Fatalf("Solve(dag) = %v, want ErrAcyclic", err)
	}
	st := s.Stats()
	if st.Solves != 1 {
		t.Errorf("after one failed call, Solves = %d, want 1", st.Solves)
	}
	if st.Errors != 1 {
		t.Errorf("after one failed call, Errors = %d, want 1", st.Errors)
	}

	// A successful call after the failure: Solves counts both, Errors only
	// the failure, and their difference is the success count.
	if _, err := s.Solve(gen.Cycle(5, 2)); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.Solves != 2 || st.Errors != 1 {
		t.Errorf("stats = {Solves: %d, Errors: %d}, want {2, 1}", st.Solves, st.Errors)
	}
}

func TestValidWarmPolicy(t *testing.T) {
	g := gen.Cycle(4, 1)
	// The only valid policy of a 4-cycle: arc i leaves node i.
	good := []graph.ArcID{0, 1, 2, 3}
	if !validWarmPolicy(g, good) {
		t.Error("valid policy rejected")
	}
	cases := [][]graph.ArcID{
		{0, 1, 2},     // wrong length
		{1, 1, 2, 3},  // arc 1 does not leave node 0
		{0, 1, 2, 99}, // out of range
		{0, 1, 2, -1}, // negative
		{3, 0, 1, 2},  // every arc leaves the wrong node
	}
	for i, warm := range cases {
		if validWarmPolicy(g, warm) {
			t.Errorf("case %d: invalid policy accepted", i)
		}
	}
}

func TestSessionWarmStartReducesIterations(t *testing.T) {
	g, err := gen.Sprand(gen.SprandConfig{N: 300, M: 1200, MinWeight: -10000, MaxWeight: 10000, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(Options{})
	cold, err := s.Solve(g)
	if err != nil {
		t.Fatal(err)
	}
	// Tiny perturbation: the old optimal policy should be optimal or nearly
	// optimal, so the warm solve must not take more iterations than cold.
	pg := reweight(g, func(i int) int64 { return int64(i % 3) })
	warm, err := s.Solve(pg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Counts.Iterations > cold.Counts.Iterations {
		t.Errorf("warm solve took %d iterations, cold took %d", warm.Counts.Iterations, cold.Counts.Iterations)
	}

	// A 12-round weight-perturbation stream over one structure (n = 2000,
	// m = 8000), solved by a Session reset before every round and by one
	// that keeps its cache from a priming solve: every warm round must hit
	// the cache, and the warm total must take fewer iterations and
	// relaxations than the cold one (measured 23 vs 160 and 280 000 vs
	// 1 376 000).
	base, err := gen.Sprand(gen.SprandConfig{N: 2000, M: 8000, MinWeight: 1, MaxWeight: 10000, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 12
	stream := []*graph.Graph{base}
	for r := 1; r < rounds; r++ {
		stream = append(stream, reweight(base, func(i int) int64 { return int64((i*r)%11 - 5) }))
	}
	coldS, warmS := NewSession(Options{}), NewSession(Options{})
	if _, err := warmS.Solve(base); err != nil {
		t.Fatal(err)
	}
	var coldIters, warmIters, coldRelax, warmRelax int
	for r, g := range stream {
		coldS.Reset()
		c, err := coldS.Solve(g)
		if err != nil {
			t.Fatal(err)
		}
		w, err := warmS.Solve(g)
		if err != nil {
			t.Fatal(err)
		}
		if !w.Mean.Equal(c.Mean) {
			t.Fatalf("round %d: warm λ* = %v, cold = %v", r, w.Mean, c.Mean)
		}
		coldIters += c.Counts.Iterations
		coldRelax += c.Counts.Relaxations
		warmIters += w.Counts.Iterations
		warmRelax += w.Counts.Relaxations
	}
	if hits := warmS.Stats().WarmHits; hits != rounds {
		t.Errorf("warm session hit its cache %d times over %d rounds", hits, rounds)
	}
	if warmIters >= coldIters || warmRelax >= coldRelax {
		t.Errorf("warm stream took %d iterations and %d relaxations, cold %d and %d",
			warmIters, warmRelax, coldIters, coldRelax)
	}
}
