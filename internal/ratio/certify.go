package ratio

// Ratio-side result certification and panic-free boundary, mirroring
// internal/core's certify.go. The optimum cycle ratio of an integer
// weighted/timed graph is a rational w(C)/t(C) with denominator bounded by
// the graph's total transit time; a float-converged ρ is snapped to that
// bounded-denominator rational, the witness cycle's ratio is recomputed
// exactly, and optimality is proven by checking that the graph reweighted
// by q·w(e) − p·t(e) admits no negative cycle.

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/numeric"
	"repro/internal/obs"
)

var (
	// ErrNumericRange mirrors core.ErrNumericRange for the ratio drivers.
	ErrNumericRange = errors.New("ratio: input magnitudes exceed the exact int64 arithmetic range")
	// ErrCertification mirrors core.ErrCertification.
	ErrCertification = errors.New("ratio: result certification failed")
)

// transitDenominatorBound returns the denominator bound for ρ* recovery:
// every simple cycle's total transit time is at most Σ t(e), saturating at
// MaxInt64 if the sum overflows.
func transitDenominatorBound(g *graph.Graph) int64 {
	var sum int64 = 0
	for _, a := range g.Arcs() {
		t := a.Transit
		if t < 0 {
			t = -t
		}
		if sum > (1<<63-1)-t {
			return 1<<63 - 1
		}
		sum += t
	}
	if sum < 1 {
		return 1
	}
	return sum
}

// certifyRatio verifies and, if needed, exactifies a minimization result in
// place; see core's certifyMean. On success res carries a Certificate with
// Value = ρ* and a witness cycle whose exact ratio equals it. The outcome is
// reported to tr.
func certifyRatio(g *graph.Graph, res *Result, tr *obs.Trace) error {
	if !tr.Enabled() {
		return certifyRatioProof(g, res)
	}
	start := time.Now()
	err := certifyRatioProof(g, res)
	ev := obs.CertifyEvent{OK: err == nil, Duration: time.Since(start), Err: err}
	if err == nil && res.Certificate != nil {
		ev.Value = res.Certificate.Value.Float64()
		ev.MaxDen = res.Certificate.MaxDen
		ev.Snapped = res.Certificate.Snapped
	}
	tr.Certify(ev)
	return err
}

// certifyRatioProof is the proof itself, tracer-free.
func certifyRatioProof(g *graph.Graph, res *Result) error {
	maxDen := transitDenominatorBound(g)
	value := res.Ratio
	snapped := false
	if !res.Exact {
		snapped = true
		if len(res.Cycle) > 0 {
			if r, ok := cycleRatio(g, res.Cycle); ok {
				value = r
			} else {
				return fmt.Errorf("%w: reported cycle has non-positive transit", ErrCertification)
			}
		} else if v, ok := numeric.SnapNearest(res.Ratio.Float64(), maxDen); ok {
			value = v
		} else {
			return fmt.Errorf("%w: no rational with denominator <= %d near %v", ErrCertification, maxDen, res.Ratio)
		}
	}
	cycle := res.Cycle
	if len(cycle) == 0 {
		c, err := extractCriticalRatioCycle(g, value)
		if err != nil {
			return fmt.Errorf("%w: no witness cycle of ratio %v: %v", ErrCertification, value, err)
		}
		cycle = c
	}
	cycVal, ok := cycleRatio(g, cycle)
	if !ok || !cycVal.Equal(value) {
		return fmt.Errorf("%w: witness cycle ratio %v does not equal claimed ρ* = %v", ErrCertification, cycVal, value)
	}
	o := newOracle(g, core.Options{}, &res.Counts)
	neg, _, err := o.Probe(value.Num(), value.Den())
	o.Close()
	if err != nil {
		return err
	}
	if neg {
		return fmt.Errorf("%w: a cycle with ratio below %v exists", ErrCertification, value)
	}
	res.Ratio = value
	res.Cycle = cycle
	res.Exact = true
	res.Certificate = &core.Certificate{Value: value, Witness: cycle, MaxDen: maxDen, Snapped: snapped}
	return nil
}

// guardedAlg wraps every registered ratio Algorithm in the panic-free
// boundary, exactly like core's registry wrapper — and, like core's, it is
// the solver-event emission point for every ratio solve path.
type guardedAlg struct {
	Algorithm
}

func (a guardedAlg) Solve(g *graph.Graph, opt core.Options) (Result, error) {
	tr := opt.Tracer
	if !tr.Enabled() {
		return a.solveGuarded(g, opt)
	}
	name := a.Algorithm.Name()
	comp := opt.TraceComponent()
	n, m := g.NumNodes(), g.NumArcs()
	tr.SolverStart(obs.SolverStartEvent{Algorithm: name, Component: comp, Nodes: n, Arcs: m})
	start := time.Now()
	res, err := a.solveGuarded(g, opt)
	tr.SolverDone(obs.SolverDoneEvent{Algorithm: name, Component: comp, Nodes: n, Arcs: m,
		Duration: time.Since(start), Counts: res.Counts, Value: res.Ratio.Float64(), Err: err})
	return res, err
}

// solveGuarded runs the wrapped solver inside the panic-free boundary; split
// out so the tracing wrapper observes the recovered error, not the panic.
func (a guardedAlg) solveGuarded(g *graph.Graph, opt core.Options) (res Result, err error) {
	defer core.RecoverNumericRange(&err, ErrNumericRange)
	return a.Algorithm.Solve(g, opt)
}
