package core

// Result certification: every float-converged solver answer is snapped to
// the rational λ* it must equal (cycle means of integer-weighted graphs are
// rationals with denominator at most n), the reported critical cycle's value
// is recomputed in exact arithmetic, and optimality is proven by checking —
// entirely in scaled int64 arithmetic — that the graph reweighted by
// q·w(e) − p admits no negative cycle (the paper's Equation 1 feasibility
// certificate for λ = p/q). When the solver handed over node potentials π
// (Howard's and Madani's fixed points do), that check is one O(m) pass:
// q·w(u→v) − p + π(v) − π(u) ≥ 0 on every arc, which summed around any
// cycle bounds its mean below by λ. Without potentials, or when they fail,
// an O(nm) Bellman–Ford decides instead. A Result that carries a
// Certificate is therefore exact unconditionally: its value does not rest
// on any solver's float epsilon, only on integer facts checked here.
//
// This file also hosts the panic-free error boundary: the int64 rational
// helpers in internal/numeric panic on overflow (they are leaf arithmetic,
// with no error channel), and the boundary converts those panics into the
// typed ErrNumericRange at every public entry point so no input — however
// extreme — can crash a caller.

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/counter"
	"repro/internal/graph"
	"repro/internal/numeric"
	"repro/internal/obs"
)

var (
	// ErrNumericRange means the exact int64 arithmetic behind a solve or a
	// certification overflowed for this input's magnitudes. It is the typed,
	// returnable form of internal/numeric's overflow panics.
	ErrNumericRange = errors.New("core: input magnitudes exceed the exact int64 arithmetic range")
	// ErrCertification means Options.Certify was set and the exact
	// optimality proof failed: either no bounded-denominator rational could
	// be recovered from the solver's value, or the feasibility check found a
	// better cycle. On exact solver runs this indicates a bug; on
	// epsilon-mode runs it means the approximate answer genuinely is not λ*.
	ErrCertification = errors.New("core: result certification failed")
)

// Certificate is the exact optimality proof attached to a Result by
// Options.Certify. It records what was verified: Witness is a cycle of the
// solved graph whose exact rational value equals Value, and the solved
// graph reweighted by Value admits no negative cycle, so no cycle with a
// smaller value exists. Together the two facts prove Value is the optimum.
type Certificate struct {
	// Value is the certified optimum (λ* for means, ρ* for ratios; the
	// maximum when Maximize is set).
	Value numeric.Rat
	// Witness is the certified cycle attaining Value exactly (it aliases
	// the Result's Cycle field).
	Witness []graph.ArcID
	// MaxDen is the denominator bound used for rational recovery: n for
	// means, the total transit time for ratios.
	MaxDen int64
	// Snapped records that the solver's value was approximate and was
	// recovered by continued-fraction snapping before verification.
	Snapped bool
	// Maximize records that the optimum was proven on the weight-negated
	// instance (MaximumCycleMean / MaximumCycleRatio).
	Maximize bool
}

// certifyMean verifies and, if needed, exactifies a minimization result in
// place: res.Mean becomes the certified rational λ*, res.Exact is set, and
// res.Certificate records the proof. Any failure leaves res untouched and
// returns an error wrapping ErrCertification or ErrNumericRange. The outcome
// (pass/fail, snap denominator, proof duration) is reported to tr.
func certifyMean(g *graph.Graph, res *Result, tr *obs.Trace) error {
	if !tr.Enabled() {
		return certifyMeanProof(g, res)
	}
	start := time.Now()
	err := certifyMeanProof(g, res)
	tr.Certify(certifyEvent(err, time.Since(start), res.Certificate))
	return err
}

// certifyEvent shapes a certification outcome for the tracer.
func certifyEvent(err error, d time.Duration, cert *Certificate) obs.CertifyEvent {
	ev := obs.CertifyEvent{OK: err == nil, Duration: d, Err: err}
	if err == nil && cert != nil {
		ev.Value = cert.Value.Float64()
		ev.MaxDen = cert.MaxDen
		ev.Snapped = cert.Snapped
	}
	return ev
}

// certifyMeanProof is the proof itself, tracer-free.
func certifyMeanProof(g *graph.Graph, res *Result) error {
	maxDen := int64(g.NumNodes())
	if maxDen < 1 {
		maxDen = 1
	}
	value := res.Mean
	snapped := false
	if !res.Exact {
		snapped = true
		if len(res.Cycle) > 0 {
			// The reported cycle is concrete evidence; its exact mean is the
			// best recovery candidate.
			value = numeric.NewRat(g.CycleWeight(res.Cycle), int64(len(res.Cycle)))
		} else if v, ok := numeric.SnapNearest(res.Mean.Float64(), maxDen); ok {
			value = v
		} else {
			return fmt.Errorf("%w: no rational with denominator <= %d near %v", ErrCertification, maxDen, res.Mean)
		}
	}
	cycle := res.Cycle
	if len(cycle) == 0 {
		c, err := extractCriticalCycle(g, value)
		if err != nil {
			return fmt.Errorf("%w: no witness cycle of mean %v: %v", ErrCertification, value, err)
		}
		cycle = c
	}
	cycVal := numeric.NewRat(g.CycleWeight(cycle), int64(len(cycle)))
	if !cycVal.Equal(value) {
		return fmt.Errorf("%w: witness cycle mean %v does not equal claimed λ* = %v", ErrCertification, cycVal, value)
	}
	p, q := value.Num(), value.Den()
	perArc, ok := scaledPerArc(g, p, q)
	if !ok {
		return fmt.Errorf("%w: feasibility check at λ = %v would overflow", ErrNumericRange, value)
	}
	pi := res.potentials
	if !potentialsInRange(pi, g.NumNodes(), perArc) || !feasiblePotentials(g, p, q, pi, &res.Counts) {
		if neg, _ := hasNegativeCycleScaled(g, p, q, &res.Counts); neg {
			return fmt.Errorf("%w: a cycle with mean below %v exists", ErrCertification, value)
		}
	}
	res.Mean = value
	res.Cycle = cycle
	res.Exact = true
	res.potentials = nil
	res.Certificate = &Certificate{Value: value, Witness: cycle, MaxDen: maxDen, Snapped: snapped}
	return nil
}

// potentialsInRange reports whether pi holds one potential per node of an
// n-node graph, each within the ±(n−1)·perArc that a path of reduced
// weights can reach. Potentials a solver produced always qualify; the check
// keeps forged or corrupted ones from wrapping feasiblePotentials' sums.
func potentialsInRange(pi []int64, n int, perArc int64) bool {
	if len(pi) != n {
		return false
	}
	bound := int64(n-1) * perArc
	for _, x := range pi {
		if x < -bound || x > bound {
			return false
		}
	}
	return true
}

// feasiblePotentials reports whether pi proves that no cycle of g has mean
// below λ = p/q: every arc u→v satisfies q·w − p + π(v) − π(u) ≥ 0, and the
// potentials cancel when that is summed around a cycle. pi must pass
// potentialsInRange for a perArc from scaledPerArc, which keeps every sum
// inside int64. The pass is counted as one negative-cycle check of m
// relaxations.
func feasiblePotentials(g *graph.Graph, p, q int64, pi []int64, counts *counter.Counts) bool {
	counts.NegativeCycleChecks++
	counts.Relaxations += g.NumArcs()
	for _, a := range g.Arcs() {
		if q*a.Weight-p+pi[a.To]-pi[a.From] < 0 {
			return false
		}
	}
	return true
}

// potentialsFromDist converts distances d with d(v) ≤ d(u) + q·w − p on
// every arc u→v (Bellman–Ford's, or Madani's fixed-point values) into a
// fresh slice of the potentials feasiblePotentials checks: π = −d.
func potentialsFromDist(d []int64) []int64 {
	pi := make([]int64, len(d))
	for v, x := range d {
		pi[v] = -x
	}
	return pi
}

// RecoverNumericRange is the deferred half of the panic-free boundary: it
// converts internal/numeric's overflow panics (all carry a "numeric:"
// string) into sentinel, re-raising anything else. Use as
// `defer RecoverNumericRange(&err, ErrNumericRange)` on any path that runs
// rational arithmetic on caller-controlled magnitudes.
func RecoverNumericRange(err *error, sentinel error) {
	r := recover()
	if r == nil {
		return
	}
	if s, ok := r.(string); ok && strings.HasPrefix(s, "numeric:") {
		*err = fmt.Errorf("%w (%s)", sentinel, s)
		return
	}
	panic(r)
}

// guardedAlg wraps a registered Algorithm so its Solve never lets a numeric
// overflow panic escape to the caller; every instance handed out by ByName
// or All is wrapped, making the whole registry panic-free by construction.
// The wrapper is also the universal solver-event emission point: since every
// path — drivers, portfolio racers, bench harness, direct callers — goes
// through a registry instance, instrumenting Solve here observes them all.
type guardedAlg struct {
	Algorithm
}

func (a guardedAlg) Solve(g *graph.Graph, opt Options) (Result, error) {
	tr := opt.Tracer
	if !tr.Enabled() {
		return a.solveGuarded(g, opt)
	}
	name := a.Algorithm.Name()
	comp := opt.traceComponent - 1
	n, m := g.NumNodes(), g.NumArcs()
	tr.SolverStart(obs.SolverStartEvent{Algorithm: name, Component: comp, Nodes: n, Arcs: m})
	start := time.Now()
	res, err := a.solveGuarded(g, opt)
	tr.SolverDone(obs.SolverDoneEvent{Algorithm: name, Component: comp, Nodes: n, Arcs: m,
		Duration: time.Since(start), Counts: res.Counts, Value: res.Mean.Float64(), Err: err})
	return res, err
}

// solveGuarded runs the wrapped solver inside the panic-free boundary; split
// out so the tracing wrapper above observes the recovered error, not the
// panic.
func (a guardedAlg) solveGuarded(g *graph.Graph, opt Options) (res Result, err error) {
	defer RecoverNumericRange(&err, ErrNumericRange)
	return a.Algorithm.Solve(g, opt)
}
