package ratio

// Ratio-side error sentinels and the panic-free registry boundary.
// Certification itself is core's proof in ratio form (core.SolveRatio): the
// value is snapped to a rational with denominator at most Σ|t|, the witness
// cycle's ratio is recomputed exactly, and optimality is proven by checking
// that the graph reweighted by q·w(e) − p·t(e) admits no negative cycle.

import (
	"errors"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
)

var (
	// ErrNumericRange mirrors core.ErrNumericRange for the ratio drivers.
	ErrNumericRange = errors.New("ratio: input magnitudes exceed the exact int64 arithmetic range")
	// ErrCertification mirrors core.ErrCertification.
	ErrCertification = errors.New("ratio: result certification failed")
)

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
