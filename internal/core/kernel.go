package core

// This file connects the internal/prep kernelization pipeline to the
// MinimumCycleMean driver. Each strongly connected component is reduced
// before any solver runs:
//
//   - A fully solved kernel (everything collapsed into closed-form
//     candidates) skips the solver entirely.
//   - An uncontracted kernel (self-loops stripped, nothing spliced) goes to
//     the caller's algorithm unchanged — kernel arc IDs map 1:1 onto paths
//     of length one — with sharpened λ* bounds for Lawler's binary search.
//   - A contracted kernel is a cost-to-time ratio instance (t = original
//     arc count), solved exactly by the ratio form of the one Howard
//     (howardRun with transits read from the arcs); any solver failure
//     (e.g. exact-arithmetic range) falls back to an unkernelized solve of
//     the original component, so kernelization never changes feasibility.
//
// In every case the critical cycle is expanded back to original arc IDs
// before the driver sees it, so callers observe the same mean and a valid
// critical cycle whether or not kernelization ran.

import (
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/prep"
)

// solveComponentKernelized solves one strongly connected cyclic component g
// through its precomputed kernel. The returned cycle uses g's arc IDs.
func solveComponentKernelized(algo Algorithm, opt Options, g *graph.Graph, kern *prep.Kernel) (Result, error) {
	if kern.Err != nil || (kern.Solved && !kern.HasCandidate) {
		// Unsupported input or a degenerate kernel: solve the original
		// component so the proper solver diagnostics apply.
		return algo.Solve(g, opt)
	}
	if min, max := g.WeightRange(); min < -MaxWeightMagnitude || max > MaxWeightMagnitude {
		// Closed-form candidates and Howard's ratio form tolerate weights the
		// mean solvers reject, but kernelization must not widen the input
		// contract: defer to the raw solve's ErrWeightRange.
		return algo.Solve(g, opt)
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
		if kern.Contracted {
			// The kernel's cycle values are Σw/Σt with t = original arc
			// count — a ratio instance the mean solvers cannot express, so
			// Howard solves it in ratio form whatever algo is, with its
			// default threshold and iteration cap, and reports as algorithm
			// "kernel". Only the caller's cancellation carries over.
			tr := opt.Tracer
			var start time.Time
			if tr.Enabled() {
				tr.SolverStart(obs.SolverStartEvent{Algorithm: "kernel",
					Component: opt.traceComponent - 1, Nodes: kern.G.NumNodes(), Arcs: kern.G.NumArcs()})
				start = time.Now()
			}
			var serr error
			r, _, serr = howardRun(kern.G, Options{cancel: opt.cancel}, false, nil, false)
			if tr.Enabled() {
				tr.SolverDone(obs.SolverDoneEvent{Algorithm: "kernel",
					Component: opt.traceComponent - 1, Nodes: kern.G.NumNodes(), Arcs: kern.G.NumArcs(),
					Duration: time.Since(start), Counts: r.Counts, Value: r.Mean.Float64(), Err: serr})
			}
			if serr != nil {
				return algo.Solve(g, opt)
			}
			r.Cycle = kern.ExpandCycle(r.Cycle)
		} else {
			sub := opt
			if kern.HasBounds {
				lo, hi := kern.Lower, kern.Upper
				sub.LambdaLower, sub.LambdaUpper = &lo, &hi
			}
			r, err = algo.Solve(kern.G, sub)
			if err != nil {
				return Result{}, err
			}
			r.Cycle = kern.ExpandCycle(r.Cycle)
		}
		cts := r.Counts
		if !have || r.Mean.Less(best.Mean) {
			best = r
		}
		best.Counts = cts
	}
	return best, nil
}
