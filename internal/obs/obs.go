// Package obs is the solve-path observability layer: a zero-overhead-when-
// disabled tracing hook threaded through every driver in internal/core and
// internal/ratio, plus an aggregating metrics collector (metrics.go) and a
// human-readable event logger (log.go) built on top of it.
//
// The design follows net/http/httptrace: Trace is a struct of nil-able hook
// functions, one per event kind, and the drivers emit through nil-tolerant
// methods (t.SolverDone(ev) is safe on a nil *Trace). With a nil tracer the
// entire layer costs one pointer comparison per emission site and zero
// allocations — pinned by TestNilTraceZeroAllocs — so production solves pay
// nothing unless observability is switched on. With a tracer installed, the
// drivers additionally gather the event payloads (timestamps, component
// sizes, operation counts), so enabling tracing is where the cost lives.
//
// Hooks must be safe for concurrent use: the parallel SCC driver and the
// portfolio racer emit solver events from multiple goroutines. Metrics uses
// atomics throughout; LogTracer serializes writes with a mutex.
package obs

import (
	"time"

	"repro/internal/counter"
)

// SCCEvent reports a completed strongly-connected-component decomposition at
// the start of a driver solve (core.MinimumCycleMean, ratio.MinimumCycleRatio,
// Session.Solve).
type SCCEvent struct {
	// Components is the number of cyclic components that will be solved.
	Components int
	// Nodes and Arcs total the cyclic components' sizes (acyclic remainder
	// excluded — it cannot carry a cycle and is never handed to a solver).
	Nodes, Arcs int
	// Sizes holds the node count of each cyclic component, in decomposition
	// order. The slice is only valid during the hook call; copy to retain.
	Sizes []int
	// Duration is the wall time of the decomposition and component
	// extraction; with core.Options.Kernelize it includes the whole-graph
	// chain contraction that precedes the split. It is zero for
	// core.DynSession, which maintains its components across deltas
	// instead of decomposing at solve time.
	Duration time.Duration
}

// KernelEvent reports one component's kernelization outcome (the
// internal/prep reduction pipeline), emitted before the component is solved.
type KernelEvent struct {
	// Component is the component's index in decomposition order.
	Component int
	// OrigNodes/OrigArcs and Nodes/Arcs are the component's size in the
	// input graph and after reduction.
	OrigNodes, OrigArcs int
	Nodes, Arcs         int
	// Contracted reports that chain contraction replaced some arcs.
	Contracted bool
	// Solved reports that the reductions solved the component outright (no
	// solver run needed).
	Solved bool
	// HasCandidate reports that a closed-form candidate cycle was found.
	HasCandidate bool
	// HasBounds reports that per-kernel λ*/ρ* bounds were derived.
	HasBounds bool
	// Unsupported reports that the input fell outside the exact reductions
	// (Kernel.Err != nil) and the raw component will be solved instead.
	Unsupported bool
	// Duration is the wall time of the component's own reductions; a
	// whole-graph chain contraction is in the SCCEvent's Duration.
	Duration time.Duration
}

// SolverStartEvent reports one solver run starting on one (component) graph.
type SolverStartEvent struct {
	// Algorithm is the solver's registered name ("howard", "karp", ...; the
	// contracted-kernel solve, Howard in ratio form, reports "kernel").
	Algorithm string
	// Component is the component index in decomposition order, or -1 when
	// the solver was invoked directly rather than through a driver.
	Component int
	// Nodes and Arcs are the size of the graph actually handed to the solver
	// (the kernel's size when kernelization ran).
	Nodes, Arcs int
	// WarmStart reports that the run was warm-started from a Session's
	// cached policy.
	WarmStart bool
}

// SolverDoneEvent reports one solver run finishing.
type SolverDoneEvent struct {
	// Algorithm, Component, Nodes, Arcs mirror the SolverStartEvent.
	Algorithm   string
	Component   int
	Nodes, Arcs int
	// Duration is the run's wall-clock time.
	Duration time.Duration
	// Counts holds the run's representative operation counts.
	Counts counter.Counts
	// Value is the component's λ*/ρ* as a float64 (the exact rational stays
	// on the driver's Result); meaningless when Err != nil.
	Value float64
	// Err is the run's error, nil on success.
	Err error
}

// RacerOutcome is one roster member's result within a portfolio race.
type RacerOutcome struct {
	// Algorithm is the racer's name.
	Algorithm string
	// Elapsed is the racer's wall-clock time from race start to its return.
	Elapsed time.Duration
	// CancelLatency is how long after the race was decided this racer took
	// to unwind (zero for the winner and for racers that returned before the
	// decision) — the cooperative-cancellation lag, one checkpoint interval.
	CancelLatency time.Duration
	// Won marks the racer whose result the portfolio returned.
	Won bool
	// Err is the racer's error; canceled losers report core.ErrCanceled.
	Err error
}

// RaceEvent reports a completed portfolio race.
type RaceEvent struct {
	// Winner is the winning algorithm's name, or "" when every racer failed.
	Winner string
	// Duration is the whole race's wall-clock time (first start to last join).
	Duration time.Duration
	// Racers holds one outcome per roster member, in roster order. The slice
	// is only valid during the hook call; copy to retain.
	Racers []RacerOutcome
}

// CacheOp enumerates Session policy-cache events.
type CacheOp int

const (
	// CacheHit: a component solve warm-started from a cached policy.
	CacheHit CacheOp = iota
	// CacheMiss: a component solve started cold.
	CacheMiss
	// CacheEvict: the cache was cleared wholesale (capacity bound).
	CacheEvict
	// CacheMerge: a request was deduplicated onto another in-flight solve of
	// the same key (singleflight) instead of solving itself. Emitted only by
	// the serve-layer result cache.
	CacheMerge
)

// String returns "hit", "miss", "evict", or "merge".
func (op CacheOp) String() string {
	switch op {
	case CacheHit:
		return "hit"
	case CacheMiss:
		return "miss"
	case CacheEvict:
		return "evict"
	case CacheMerge:
		return "merge"
	}
	return "unknown"
}

// CacheEvent reports one Session policy-cache operation.
type CacheEvent struct {
	Op CacheOp
	// Entries is the number of cached policies after the operation.
	Entries int
}

// ServeCacheEvent reports one operation of the serve-layer content-addressed
// result cache (internal/servecache): a stored-result hit, a miss that will
// run a solve, an LRU eviction, or a singleflight merge of a duplicate
// request onto an in-flight solve. Kept distinct from CacheEvent so the
// Session policy cache and the result cache never share counters.
type ServeCacheEvent struct {
	Op CacheOp
	// Entries is the number of cached results after the operation.
	Entries int
}

// ApproxEvent reports one run of the streaming approximation tier
// (internal/approx via the "approx" algorithm): the requested scheme, the
// certified interval reached, and whether an exact Lawler sharpening pass
// followed.
type ApproxEvent struct {
	// Mode is the scheme actually run ("chkl" or "ap").
	Mode string
	// Epsilon is the requested tolerance (the engine's bracketing epsilon
	// when the run was a sharpening prelude to an exact answer).
	Epsilon float64
	// Nodes and Arcs are the presented graph's dimensions.
	Nodes, Arcs int
	// Passes counts full arc-stream sweeps; Rounds bisection probes.
	Passes, Rounds int
	// Lower and Upper are the certified interval bracketing λ*; Upper is
	// NaN when no witness cycle was harvested before an error.
	Lower, Upper float64
	// Sharpened reports that an exact Lawler pass seeded from the interval
	// followed (and its answer is what the caller received).
	Sharpened bool
	// Err is the engine's error, nil on success.
	Err error
}

// ProbeEvent reports one run of the shared parametric negative-cycle oracle
// (internal/ratio's Bellman–Ford feasibility probe): the probed rational
// λ = Num/Den, whether a cycle with ratio below λ exists, and the work done.
// Every Lawler-style ratio search (lawler, dinkelbach, sternbrocot, megiddo,
// plus certification) reduces to a sequence of these probes, so a probe
// stream is the per-iteration view of a ratio solve.
type ProbeEvent struct {
	// Num and Den are the probed rational λ = Num/Den (Den > 0).
	Num, Den int64
	// Negative reports that some cycle C has Den·w(C) − Num·t(C) < 0,
	// i.e. ρ(C) < λ.
	Negative bool
	// Passes is the number of Bellman–Ford passes the probe ran before
	// converging or confirming a negative cycle.
	Passes int
	// Duration is the probe's wall-clock time.
	Duration time.Duration
}

// CertifyEvent reports an exact-certification attempt (Options.Certify).
type CertifyEvent struct {
	// OK reports that the optimality proof succeeded.
	OK bool
	// Value is the certified optimum as a float64 (λ* or ρ*).
	Value float64
	// MaxDen is the denominator bound used for rational recovery (n for
	// means, total transit for ratios).
	MaxDen int64
	// Snapped reports that the solver's float value had to be recovered by
	// continued-fraction snapping before verification.
	Snapped bool
	// Duration is the proof's wall-clock time.
	Duration time.Duration
	// Err is the proof failure, nil when OK.
	Err error
}

// DeltaEvent reports one applied dynamic-graph delta (core.DynSession): the
// operation, the arc/node it touched, and how far its invalidation reached —
// how many cached components were marked for re-solve, how many were merged
// into one (arc insertion closing a cycle between components), and how many
// a deletion split one component into. Components counts the live cyclic
// components after the delta, so a metrics stream shows the decomposition
// evolving.
type DeltaEvent struct {
	// Op names the delta operation: "insert-arc", "delete-arc",
	// "set-weight", "set-transit", or "add-node".
	Op string
	// Arc is the original arc ID the delta targeted (the inserted arc's
	// fresh ID for insert-arc); -1 for add-node.
	Arc int
	// From and To are the arc endpoints (the new node's ID in From for
	// add-node; -1 when not applicable).
	From, To int
	// Invalidated counts cached component results this delta marked dirty.
	Invalidated int
	// Merged counts previously separate components fused by an insertion
	// (0 or ≥2); Split counts components one deletion decomposed into.
	Merged, Split int
	// Components is the number of live cyclic components after the delta.
	Components int
}

// Trace is a set of hooks invoked by the solve drivers as typed events occur.
// Any hook may be nil; a nil *Trace disables the layer entirely (the emission
// methods below tolerate nil receivers, so callers never branch themselves).
//
// Hooks are called synchronously on the solving goroutine and — under the
// parallel SCC driver or a portfolio race — concurrently from several
// goroutines, so they must be safe for concurrent use and should return
// quickly.
type Trace struct {
	OnSCC         func(SCCEvent)
	OnKernel      func(KernelEvent)
	OnSolverStart func(SolverStartEvent)
	OnSolverDone  func(SolverDoneEvent)
	OnRace        func(RaceEvent)
	OnCache       func(CacheEvent)
	OnServeCache  func(ServeCacheEvent)
	OnApprox      func(ApproxEvent)
	OnProbe       func(ProbeEvent)
	OnCertify     func(CertifyEvent)
	OnDelta       func(DeltaEvent)
}

// Enabled reports whether any events can possibly be observed; drivers gate
// payload gathering (time.Now, size slices) behind it.
func (t *Trace) Enabled() bool { return t != nil }

// SCC emits an SCCEvent; safe on a nil receiver.
func (t *Trace) SCC(ev SCCEvent) {
	if t != nil && t.OnSCC != nil {
		t.OnSCC(ev)
	}
}

// Kernel emits a KernelEvent; safe on a nil receiver.
func (t *Trace) Kernel(ev KernelEvent) {
	if t != nil && t.OnKernel != nil {
		t.OnKernel(ev)
	}
}

// SolverStart emits a SolverStartEvent; safe on a nil receiver.
func (t *Trace) SolverStart(ev SolverStartEvent) {
	if t != nil && t.OnSolverStart != nil {
		t.OnSolverStart(ev)
	}
}

// SolverDone emits a SolverDoneEvent; safe on a nil receiver.
func (t *Trace) SolverDone(ev SolverDoneEvent) {
	if t != nil && t.OnSolverDone != nil {
		t.OnSolverDone(ev)
	}
}

// Race emits a RaceEvent; safe on a nil receiver.
func (t *Trace) Race(ev RaceEvent) {
	if t != nil && t.OnRace != nil {
		t.OnRace(ev)
	}
}

// Cache emits a CacheEvent; safe on a nil receiver.
func (t *Trace) Cache(ev CacheEvent) {
	if t != nil && t.OnCache != nil {
		t.OnCache(ev)
	}
}

// ServeCache emits a ServeCacheEvent; safe on a nil receiver.
func (t *Trace) ServeCache(ev ServeCacheEvent) {
	if t != nil && t.OnServeCache != nil {
		t.OnServeCache(ev)
	}
}

// Approx emits an ApproxEvent; safe on a nil receiver.
func (t *Trace) Approx(ev ApproxEvent) {
	if t != nil && t.OnApprox != nil {
		t.OnApprox(ev)
	}
}

// Probe emits a ProbeEvent; safe on a nil receiver.
func (t *Trace) Probe(ev ProbeEvent) {
	if t != nil && t.OnProbe != nil {
		t.OnProbe(ev)
	}
}

// Certify emits a CertifyEvent; safe on a nil receiver.
func (t *Trace) Certify(ev CertifyEvent) {
	if t != nil && t.OnCertify != nil {
		t.OnCertify(ev)
	}
}

// Delta emits a DeltaEvent; safe on a nil receiver.
func (t *Trace) Delta(ev DeltaEvent) {
	if t != nil && t.OnDelta != nil {
		t.OnDelta(ev)
	}
}

// Multi fans every event out to each non-nil trace in order, so a log tracer
// and a metrics collector can observe the same solve. Nil members are
// skipped; Multi() and Multi(nil, nil) return nil (the disabled tracer).
func Multi(traces ...*Trace) *Trace {
	live := make([]*Trace, 0, len(traces))
	for _, t := range traces {
		if t != nil {
			live = append(live, t)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	out := &Trace{}
	out.OnSCC = func(ev SCCEvent) {
		for _, t := range live {
			t.SCC(ev)
		}
	}
	out.OnKernel = func(ev KernelEvent) {
		for _, t := range live {
			t.Kernel(ev)
		}
	}
	out.OnSolverStart = func(ev SolverStartEvent) {
		for _, t := range live {
			t.SolverStart(ev)
		}
	}
	out.OnSolverDone = func(ev SolverDoneEvent) {
		for _, t := range live {
			t.SolverDone(ev)
		}
	}
	out.OnRace = func(ev RaceEvent) {
		for _, t := range live {
			t.Race(ev)
		}
	}
	out.OnCache = func(ev CacheEvent) {
		for _, t := range live {
			t.Cache(ev)
		}
	}
	out.OnServeCache = func(ev ServeCacheEvent) {
		for _, t := range live {
			t.ServeCache(ev)
		}
	}
	out.OnApprox = func(ev ApproxEvent) {
		for _, t := range live {
			t.Approx(ev)
		}
	}
	out.OnProbe = func(ev ProbeEvent) {
		for _, t := range live {
			t.Probe(ev)
		}
	}
	out.OnCertify = func(ev CertifyEvent) {
		for _, t := range live {
			t.Certify(ev)
		}
	}
	out.OnDelta = func(ev DeltaEvent) {
		for _, t := range live {
			t.Delta(ev)
		}
	}
	return out
}
