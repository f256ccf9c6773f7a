package core

// Integration tests for the obs.Trace hooks: every solve path — sequential,
// parallel, kernelized, portfolio, session — must emit the documented event
// sequence, with component tags and cache/certification outcomes that match
// the work actually performed.

import (
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/obs"
)

// traceRecorder collects every event kind behind one mutex so it is safe for
// the concurrent emission the parallel driver and portfolio produce.
type traceRecorder struct {
	mu      sync.Mutex
	scc     []obs.SCCEvent
	kernels []obs.KernelEvent
	starts  []obs.SolverStartEvent
	dones   []obs.SolverDoneEvent
	races   []obs.RaceEvent
	caches  []obs.CacheEvent
	certs   []obs.CertifyEvent
}

func (r *traceRecorder) trace() *obs.Trace {
	return &obs.Trace{
		OnSCC:         func(ev obs.SCCEvent) { r.mu.Lock(); r.scc = append(r.scc, ev); r.mu.Unlock() },
		OnKernel:      func(ev obs.KernelEvent) { r.mu.Lock(); r.kernels = append(r.kernels, ev); r.mu.Unlock() },
		OnSolverStart: func(ev obs.SolverStartEvent) { r.mu.Lock(); r.starts = append(r.starts, ev); r.mu.Unlock() },
		OnSolverDone:  func(ev obs.SolverDoneEvent) { r.mu.Lock(); r.dones = append(r.dones, ev); r.mu.Unlock() },
		OnRace:        func(ev obs.RaceEvent) { r.mu.Lock(); r.races = append(r.races, ev); r.mu.Unlock() },
		OnCache:       func(ev obs.CacheEvent) { r.mu.Lock(); r.caches = append(r.caches, ev); r.mu.Unlock() },
		OnCertify:     func(ev obs.CertifyEvent) { r.mu.Lock(); r.certs = append(r.certs, ev); r.mu.Unlock() },
	}
}

// componentsSeen returns the set of component tags on SolverDone events.
func (r *traceRecorder) componentsSeen() map[int]int {
	seen := make(map[int]int)
	for _, ev := range r.dones {
		seen[ev.Component]++
	}
	return seen
}

func TestTraceSequentialDriver(t *testing.T) {
	g, err := gen.MultiSCC(4, 15, 40, 21)
	if err != nil {
		t.Fatal(err)
	}
	rec := &traceRecorder{}
	res, err := MinimumCycleMean(g, mustAlgo(t, "howard"), Options{Certify: true, Tracer: rec.trace()})
	if err != nil {
		t.Fatal(err)
	}

	if len(rec.scc) != 1 {
		t.Fatalf("SCC events = %d, want 1", len(rec.scc))
	}
	scc := rec.scc[0]
	if scc.Components < 2 {
		t.Fatalf("MultiSCC(4, ...) reported %d cyclic components", scc.Components)
	}
	if len(scc.Sizes) != scc.Components {
		t.Errorf("len(Sizes) = %d, want %d", len(scc.Sizes), scc.Components)
	}
	if scc.Duration <= 0 {
		t.Errorf("SCC event has non-positive duration %v", scc.Duration)
	}
	// Nodes/Arcs cover the cyclic components only (the acyclic remainder is
	// never handed to a solver), so they are bounded by the full graph.
	if scc.Nodes <= 0 || scc.Nodes > g.NumNodes() || scc.Arcs <= 0 || scc.Arcs > g.NumArcs() {
		t.Errorf("SCC event sizes n=%d m=%d out of range for graph n=%d m=%d", scc.Nodes, scc.Arcs, g.NumNodes(), g.NumArcs())
	}
	var sizeSum int
	for _, sz := range scc.Sizes {
		sizeSum += sz
	}
	if sizeSum != scc.Nodes {
		t.Errorf("sum(Sizes) = %d, want Nodes = %d", sizeSum, scc.Nodes)
	}

	if len(rec.starts) != scc.Components || len(rec.dones) != scc.Components {
		t.Fatalf("solver events start=%d done=%d, want %d each", len(rec.starts), len(rec.dones), scc.Components)
	}
	seen := rec.componentsSeen()
	for ci := 0; ci < scc.Components; ci++ {
		if seen[ci] != 1 {
			t.Errorf("component %d solved %d times in the event stream, want 1", ci, seen[ci])
		}
	}
	for _, ev := range rec.dones {
		if ev.Algorithm != "howard" {
			t.Errorf("SolverDone.Algorithm = %q, want howard", ev.Algorithm)
		}
		if ev.Err != nil {
			t.Errorf("component %d reported error %v", ev.Component, ev.Err)
		}
		if ev.Duration <= 0 {
			t.Errorf("component %d has non-positive duration %v", ev.Component, ev.Duration)
		}
	}

	if len(rec.certs) != 1 {
		t.Fatalf("certify events = %d, want 1", len(rec.certs))
	}
	cert := rec.certs[0]
	if !cert.OK || cert.Err != nil {
		t.Fatalf("certification event reports failure: %+v", cert)
	}
	if cert.Value != res.Mean.Float64() {
		t.Errorf("certify event value %g, want %g", cert.Value, res.Mean.Float64())
	}
	if cert.MaxDen < 1 {
		t.Errorf("certify event MaxDen = %d, want >= 1", cert.MaxDen)
	}
}

func TestTraceParallelDriver(t *testing.T) {
	g, err := gen.MultiSCC(6, 12, 30, 33)
	if err != nil {
		t.Fatal(err)
	}
	rec := &traceRecorder{}
	if _, err := MinimumCycleMean(g, mustAlgo(t, "howard"), Options{Parallelism: 4, Tracer: rec.trace()}); err != nil {
		t.Fatal(err)
	}
	if len(rec.scc) != 1 {
		t.Fatalf("SCC events = %d, want 1", len(rec.scc))
	}
	comps := rec.scc[0].Components
	if len(rec.dones) != comps {
		t.Fatalf("SolverDone events = %d, want %d", len(rec.dones), comps)
	}
	seen := rec.componentsSeen()
	for ci := 0; ci < comps; ci++ {
		if seen[ci] != 1 {
			t.Errorf("component %d solved %d times, want 1", ci, seen[ci])
		}
	}
}

func TestTraceKernelizedDriver(t *testing.T) {
	g, err := gen.MultiSCC(4, 10, 25, 9)
	if err != nil {
		t.Fatal(err)
	}
	rec := &traceRecorder{}
	if _, err := MinimumCycleMean(g, mustAlgo(t, "howard"), Options{Kernelize: true, Tracer: rec.trace()}); err != nil {
		t.Fatal(err)
	}
	comps := rec.scc[0].Components
	if len(rec.kernels) != comps {
		t.Fatalf("kernel events = %d, want one per component (%d)", len(rec.kernels), comps)
	}
	compSeen := make(map[int]bool)
	for _, ev := range rec.kernels {
		compSeen[ev.Component] = true
		if ev.OrigNodes <= 0 || ev.OrigArcs <= 0 {
			t.Errorf("kernel event has empty original sizes: %+v", ev)
		}
		if ev.Duration <= 0 {
			t.Errorf("kernel event for component %d has non-positive duration %v", ev.Component, ev.Duration)
		}
	}
	if len(compSeen) != comps {
		t.Errorf("kernel events cover %d components, want %d", len(compSeen), comps)
	}
}

func TestTraceDirectSolveUntaggedComponent(t *testing.T) {
	// A direct Algorithm.Solve call (no driver) carries no component tag:
	// the event must report Component == -1.
	g := gen.Cycle(8, 3)
	rec := &traceRecorder{}
	if _, err := mustAlgo(t, "karp").Solve(g, Options{Tracer: rec.trace()}); err != nil {
		t.Fatal(err)
	}
	if len(rec.dones) != 1 {
		t.Fatalf("SolverDone events = %d, want 1", len(rec.dones))
	}
	if ev := rec.dones[0]; ev.Component != -1 || ev.Algorithm != "karp" {
		t.Errorf("direct solve event = %+v, want Component -1, Algorithm karp", ev)
	}
}

func TestTracePortfolioRace(t *testing.T) {
	g := gen.Complete(12, -100, 100, 4)
	rec := &traceRecorder{}
	p := NewPortfolio()
	if _, err := p.Solve(g, Options{Tracer: rec.trace()}); err != nil {
		t.Fatal(err)
	}
	if len(rec.races) != 1 {
		t.Fatalf("race events = %d, want 1", len(rec.races))
	}
	ev := rec.races[0]
	if len(ev.Racers) != len(p.Algorithms()) {
		t.Fatalf("racer outcomes = %d, want %d", len(ev.Racers), len(p.Algorithms()))
	}
	if ev.Winner == "" {
		t.Fatal("race event has no winner")
	}
	won := 0
	for _, r := range ev.Racers {
		if r.Won {
			won++
			if r.Algorithm != ev.Winner {
				t.Errorf("winning racer %q != event winner %q", r.Algorithm, ev.Winner)
			}
		}
	}
	if won != 1 {
		t.Errorf("%d racers marked Won, want exactly 1", won)
	}
	if ev.Duration <= 0 {
		t.Errorf("race duration %v, want > 0", ev.Duration)
	}
}

func TestTraceSessionCacheEvents(t *testing.T) {
	g, err := gen.Sprand(gen.SprandConfig{N: 40, M: 120, MinWeight: -100, MaxWeight: 100, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	rec := &traceRecorder{}
	s := NewSession(Options{Tracer: rec.trace()})
	if _, err := s.Solve(g); err != nil {
		t.Fatal(err)
	}
	var hits, misses int
	for _, ev := range rec.caches {
		switch ev.Op {
		case obs.CacheHit:
			hits++
		case obs.CacheMiss:
			misses++
		}
	}
	if misses == 0 || hits != 0 {
		t.Fatalf("cold solve: hits=%d misses=%d, want 0 hits and >0 misses", hits, misses)
	}
	for _, ev := range rec.starts {
		if ev.WarmStart {
			t.Errorf("cold solve emitted WarmStart event: %+v", ev)
		}
	}

	// Weight-only perturbation: same structure, so every component must hit
	// the cache and its solver event must carry WarmStart.
	rec2 := &traceRecorder{}
	s2 := NewSession(Options{Tracer: rec2.trace()})
	if _, err := s2.Solve(g); err != nil {
		t.Fatal(err)
	}
	pg := reweight(g, func(i int) int64 { return int64(i%5 - 2) })
	if _, err := s2.Solve(pg); err != nil {
		t.Fatal(err)
	}
	var warmStarts int
	for _, ev := range rec2.starts {
		if ev.WarmStart {
			warmStarts++
		}
	}
	if warmStarts == 0 {
		t.Error("repeat solve emitted no WarmStart solver events")
	}
	var hit bool
	for _, ev := range rec2.caches {
		if ev.Op == obs.CacheHit {
			hit = true
			if ev.Entries <= 0 {
				t.Errorf("cache hit with %d entries", ev.Entries)
			}
		}
	}
	if !hit {
		t.Error("repeat solve emitted no CacheHit event")
	}
}

func TestTraceMultiFanOut(t *testing.T) {
	// obs.Multi must deliver driver events to both member traces.
	g := gen.Cycle(6, 2)
	a, b := &traceRecorder{}, &traceRecorder{}
	tr := obs.Multi(a.trace(), b.trace())
	if _, err := MinimumCycleMean(g, mustAlgo(t, "howard"), Options{Tracer: tr}); err != nil {
		t.Fatal(err)
	}
	if len(a.dones) != 1 || len(b.dones) != 1 {
		t.Errorf("fan-out solver events a=%d b=%d, want 1 each", len(a.dones), len(b.dones))
	}
	if len(a.scc) != 1 || len(b.scc) != 1 {
		t.Errorf("fan-out SCC events a=%d b=%d, want 1 each", len(a.scc), len(b.scc))
	}
}
