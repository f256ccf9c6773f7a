package core

// This file connects the internal/prep kernelization pipeline to the
// component driver. The driver contracts the input's chains before the SCC
// split (see parts in driver.go), and each strongly connected component is
// reduced before any solver runs:
//
//   - A fully solved kernel (everything collapsed into closed-form
//     candidates) skips the solver entirely.
//   - A mean kernel that was not contracted (self-loops stripped, nothing
//     spliced), and every ratio kernel, goes to the caller's algorithm with
//     sharpened bounds for Lawler-style searches: kernel arc IDs map 1:1
//     onto paths of length one, and a contracted ratio kernel is still a
//     plain ratio instance, its transits summed along each chain.
//   - A contracted mean kernel is a cost-to-time ratio instance (t =
//     original arc count) that the mean solvers cannot express, so the
//     ratio form of the one Howard solves it (howardRun with transits read
//     from the arcs).
//
// The two forms keep their own rule for a failed kernel solve. A mean
// solve falls back to the unkernelized component when the contracted
// kernel fails (e.g. exact-arithmetic range), and reports an uncontracted
// kernel's failure as the component's own. A ratio solve falls back on any
// failure: accumulated kernel weights can exceed a solver's range even when
// the original weights do not, and the raw solve reproduces the exact
// diagnostics an unkernelized run would report.
//
// Every fallback solves the raw component, which a contracted graph builds
// only then. In every case the critical cycle is expanded back to original
// arc IDs before the driver sees it, so callers observe the same value and a
// valid critical cycle whether or not kernelization ran.

import (
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/prep"
)

// solveKernel solves component ci through its precomputed kernel. It
// returns the arc map that takes the result's cycle to g's arc IDs: the
// component's own, or nil when the kernel was reduced from the contracted
// graph, whose paths use g's IDs already.
func solveKernel(p parts, ci int, algo Algorithm, opt Options, f form, kern *prep.Kernel) (Result, []graph.ArcID, error) {
	raw := func() (Result, []graph.ArcID, error) {
		comp := p.raw(ci)
		r, err := algo.Solve(comp.Graph, opt)
		return r, comp.ArcMap, err
	}
	if kern.Err != nil || (kern.Solved && !kern.HasCandidate) {
		// Unsupported input or a degenerate kernel: solve the original
		// component so the proper solver diagnostics apply.
		return raw()
	}
	if !p.inRange(ci, f) {
		// Closed-form candidates and Howard's ratio form tolerate weights the
		// mean solvers reject, but kernelization must not widen the input
		// contract: defer to the raw solve's ErrWeightRange.
		return raw()
	}
	var arcMap []graph.ArcID
	if p.con == nil {
		arcMap = p.comps[ci].ArcMap
	}

	var best Result
	have := false
	if kern.HasCandidate {
		best = Result{Mean: kern.CandidateValue, Cycle: kern.CandidateCycle(), Exact: true}
		have = true
	}
	if !kern.Solved {
		var (
			r   Result
			err error
		)
		if f.unit && kern.Contracted {
			r, err = solveContracted(kern, opt)
		} else {
			sub := opt
			if kern.HasBounds {
				lo, hi := kern.Lower, kern.Upper
				sub.LambdaLower, sub.LambdaUpper = &lo, &hi
			}
			r, err = algo.Solve(kern.G, sub)
			if err != nil && f.unit {
				return Result{}, nil, err
			}
		}
		if err != nil {
			return raw()
		}
		r.Cycle = kern.ExpandCycle(r.Cycle)
		cts := r.Counts
		if !have || r.Mean.Less(best.Mean) {
			best = r
		}
		best.Counts = cts
	}
	return best, arcMap, nil
}

// solveContracted solves a contracted mean kernel with Howard in ratio form,
// with its default threshold and iteration cap, reporting as algorithm
// "kernel". Only the caller's cancellation carries over.
func solveContracted(kern *prep.Kernel, opt Options) (Result, error) {
	tr := opt.Tracer
	comp, n, m := opt.traceComponent-1, kern.G.NumNodes(), kern.G.NumArcs()
	var start time.Time
	if tr.Enabled() {
		tr.SolverStart(obs.SolverStartEvent{Algorithm: "kernel", Component: comp, Nodes: n, Arcs: m})
		start = time.Now()
	}
	r, _, err := howardRun(kern.G, Options{cancel: opt.cancel}, false, nil, false)
	if tr.Enabled() {
		tr.SolverDone(obs.SolverDoneEvent{Algorithm: "kernel", Component: comp, Nodes: n, Arcs: m,
			Duration: time.Since(start), Counts: r.Counts, Value: r.Mean.Float64(), Err: err})
	}
	return r, err
}
