package ratio

// Ratio solves run core's component driver and certifier, and the guarded
// registry wrapper reports each engine run: the obs event stream must be
// core's — SCC decomposition, per-component solver runs with the ratio
// value, and the certification outcome.

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

func TestTraceRatioDriver(t *testing.T) {
	g := randomTransitGraph(t, 24, 72, 5, 7)

	var mu sync.Mutex
	var sccs []obs.SCCEvent
	var dones []obs.SolverDoneEvent
	var certs []obs.CertifyEvent
	tr := &obs.Trace{
		OnSCC:        func(ev obs.SCCEvent) { mu.Lock(); sccs = append(sccs, ev); mu.Unlock() },
		OnSolverDone: func(ev obs.SolverDoneEvent) { mu.Lock(); dones = append(dones, ev); mu.Unlock() },
		OnCertify:    func(ev obs.CertifyEvent) { mu.Lock(); certs = append(certs, ev); mu.Unlock() },
	}

	algo, err := ByName("howard")
	if err != nil {
		t.Fatal(err)
	}
	res, err := MinimumCycleRatio(g, algo, core.Options{Certify: true, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}

	if len(sccs) != 1 {
		t.Fatalf("SCC events = %d, want 1", len(sccs))
	}
	if len(dones) != sccs[0].Components {
		t.Fatalf("SolverDone events = %d, want one per component (%d)", len(dones), sccs[0].Components)
	}
	for _, ev := range dones {
		if ev.Algorithm != "howard" {
			t.Errorf("SolverDone.Algorithm = %q, want howard", ev.Algorithm)
		}
		if ev.Component < 0 || ev.Component >= sccs[0].Components {
			t.Errorf("component tag %d out of range [0, %d)", ev.Component, sccs[0].Components)
		}
		if ev.Err != nil {
			t.Errorf("component %d reported error %v", ev.Component, ev.Err)
		}
	}
	if len(certs) != 1 {
		t.Fatalf("certify events = %d, want 1", len(certs))
	}
	if !certs[0].OK || certs[0].Value != res.Ratio.Float64() {
		t.Errorf("certify event = %+v, want pass at rho* = %g", certs[0], res.Ratio.Float64())
	}
}

func TestTraceRatioDirectSolveUntaggedComponent(t *testing.T) {
	// A direct ratio Algorithm.Solve call (no driver) has no component tag:
	// the guarded wrapper must report Component == -1.
	g := randomTransitGraph(t, 12, 36, 4, 3)
	var mu sync.Mutex
	var dones []obs.SolverDoneEvent
	tr := &obs.Trace{
		OnSolverDone: func(ev obs.SolverDoneEvent) { mu.Lock(); dones = append(dones, ev); mu.Unlock() },
	}
	algo, err := ByName("lawler")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := algo.Solve(g, core.Options{Tracer: tr}); err != nil {
		t.Fatal(err)
	}
	if len(dones) != 1 || dones[0].Component != -1 || dones[0].Algorithm != "lawler" {
		t.Errorf("direct solve events = %+v, want one with Component -1, Algorithm lawler", dones)
	}
}
