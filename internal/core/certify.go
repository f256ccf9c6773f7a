package core

// Result certification, for means and ratios alike: every float-converged
// solver answer is snapped to the rational optimum it must equal (cycle
// values of integer-weighted graphs are rationals w(C)/t(C) whose
// denominator is at most n for means and at most the total transit time Σ|t|
// for ratios), the reported critical cycle's value is recomputed in exact
// arithmetic, and optimality is proven by checking — entirely in scaled
// int64 arithmetic — that the graph reweighted by q·w(e) − p·t(e) admits no
// negative cycle (the paper's Equation 1 feasibility certificate for
// λ = p/q, with t ≡ 1 for means). When the solver handed over node
// potentials π (Howard's and Madani's mean fixed points do), that check is
// one O(m) pass: q·w(u→v) − p·t + π(v) − π(u) ≥ 0 on every arc, which summed
// around any cycle bounds its value below by λ. Without potentials, or when
// they fail, an O(nm) Bellman–Ford decides instead. A Result that carries a
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

// certify verifies and, if needed, exactifies a minimization result in
// place: res.Mean becomes the certified rational optimum, res.Exact is set,
// and res.Certificate records the proof. Any failure leaves res untouched
// and returns an error wrapping f's Certification or NumericRange sentinel.
// The outcome (pass/fail, snap denominator, proof duration) is reported to
// tr.
func certify(g *graph.Graph, res *Result, tr *obs.Trace, f form) error {
	if !tr.Enabled() {
		return certifyProof(g, res, f)
	}
	start := time.Now()
	err := certifyProof(g, res, f)
	ev := obs.CertifyEvent{OK: err == nil, Duration: time.Since(start), Err: err}
	if err == nil {
		ev.Value = res.Certificate.Value.Float64()
		ev.MaxDen = res.Certificate.MaxDen
		ev.Snapped = res.Certificate.Snapped
	}
	tr.Certify(ev)
	return err
}

// certifyProof is the proof itself, tracer-free.
func certifyProof(g *graph.Graph, res *Result, f form) error {
	maxDen := denominatorBound(g, f.unit)
	value := res.Mean
	snapped := false
	if !res.Exact {
		snapped = true
		if len(res.Cycle) > 0 {
			// The reported cycle is concrete evidence; its exact value is the
			// best recovery candidate.
			v, ok := cycleValue(g, res.Cycle, f.unit)
			if !ok {
				return fmt.Errorf("%w: reported cycle has non-positive transit", f.Certification)
			}
			value = v
		} else if v, ok := numeric.SnapNearest(res.Mean.Float64(), maxDen); ok {
			value = v
		} else {
			return fmt.Errorf("%w: no rational with denominator <= %d near %v", f.Certification, maxDen, res.Mean)
		}
	}
	cycle := res.Cycle
	if len(cycle) == 0 {
		c, err := extractCriticalCycle(g, value, f.unit)
		if err != nil {
			return fmt.Errorf("%w: no witness cycle of %s %v: %v", f.Certification, f.noun(), value, err)
		}
		cycle = c
	}
	if v, ok := cycleValue(g, cycle, f.unit); !ok || !v.Equal(value) {
		return fmt.Errorf("%w: witness cycle %s %v does not equal claimed %s = %v", f.Certification, f.noun(), v, f.symbol(), value)
	}
	p, q := value.Num(), value.Den()
	perArc, ok := scaledPerArc(g, p, q, maxTransit(g, f.unit))
	if !ok {
		return fmt.Errorf("%w: feasibility check at λ = %v would overflow", f.NumericRange, value)
	}
	pi := res.potentials
	if !potentialsInRange(pi, g.NumNodes(), perArc) || !feasiblePotentials(g, p, q, f.unit, pi, &res.Counts) {
		ws := getExtractWS(g.NumNodes())
		neg, _ := hasNegativeCycleScaledInto(g, p, q, f.unit, &res.Counts, ws.dist, ws.parent)
		ws.release()
		if neg {
			return fmt.Errorf("%w: a cycle with %s below %v exists", f.Certification, f.noun(), value)
		}
	}
	res.Mean = value
	res.Cycle = cycle
	res.Exact = true
	res.potentials = nil
	res.Certificate = &Certificate{Value: value, Witness: cycle, MaxDen: maxDen, Snapped: snapped}
	return nil
}

// denominatorBound returns the denominator bound for rational recovery:
// a simple cycle has at most n arcs (unit) and a total transit time of at
// most Σ|t(e)|, a sum that saturates at MaxInt64.
func denominatorBound(g *graph.Graph, unit bool) int64 {
	if unit {
		return max(int64(g.NumNodes()), 1)
	}
	var sum int64
	for _, a := range g.Arcs() {
		t := abs64(a.Transit)
		if sum > (1<<63-1)-t {
			return 1<<63 - 1
		}
		sum += t
	}
	return max(sum, 1)
}

// cycleValue returns a cycle's exact value w(C)/t(C), with t read through
// transit, or ok = false when t(C) ≤ 0.
func cycleValue(g *graph.Graph, cycle []graph.ArcID, unit bool) (numeric.Rat, bool) {
	t := int64(len(cycle))
	if !unit {
		t = g.CycleTransit(cycle)
	}
	if t <= 0 {
		return numeric.Rat{}, false
	}
	return numeric.NewRat(g.CycleWeight(cycle), t), true
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

// feasiblePotentials reports whether pi proves that no cycle of g has value
// below λ = p/q: every arc u→v satisfies q·w − p·t + π(v) − π(u) ≥ 0, with t
// read through transit, and the potentials cancel when that is summed
// around a cycle. pi must pass potentialsInRange for a perArc from
// scaledPerArc, which keeps every sum inside int64. The pass is counted as
// one negative-cycle check of m relaxations.
func feasiblePotentials(g *graph.Graph, p, q int64, unit bool, pi []int64, counts *counter.Counts) bool {
	counts.NegativeCycleChecks++
	counts.Relaxations += g.NumArcs()
	for _, a := range g.Arcs() {
		if q*a.Weight-p*transit(a, unit)+pi[a.To]-pi[a.From] < 0 {
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
