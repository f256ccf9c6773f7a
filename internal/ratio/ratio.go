// Package ratio implements the minimum cost-to-time ratio problem (MCRP)
// algorithms of the DAC'99 study: Howard's algorithm, Lawler's algorithm and
// Burns' algorithm in their full ratio form, plus the classical
// transit-time-expansion reduction to the minimum mean problem (the
// Hartmann–Orlin O(Tm) approach).
//
// The cycle ratio of a cycle C is ρ(C) = w(C)/t(C) with t(C) > 0; the
// minimum mean problem is the special case where every transit time is 1,
// which is how the paper reduces its study to MCMP. This package keeps the
// general form so the CAD applications in internal/perf (iteration bounds
// of dataflow graphs, rate analysis) can use true transit times.
package ratio

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/counter"
	"repro/internal/graph"
	"repro/internal/numeric"
	"repro/internal/obs"
	"repro/internal/prep"
)

// Errors mirrored from the mean solvers, plus ratio-specific failures.
var (
	// ErrAcyclic means no cycle exists, so no cycle ratio is defined.
	ErrAcyclic = errors.New("ratio: graph has no cycles")
	// ErrNonPositiveTransit means some cycle has non-positive total transit
	// time, making its ratio undefined (the problem requires t(C) > 0).
	ErrNonPositiveTransit = errors.New("ratio: a cycle with non-positive total transit time exists")
	// ErrNotStronglyConnected mirrors core.ErrNotStronglyConnected.
	ErrNotStronglyConnected = errors.New("ratio: graph is not strongly connected")
	// ErrIterationLimit mirrors core.ErrIterationLimit.
	ErrIterationLimit = errors.New("ratio: iteration limit exceeded")
)

// Result is the outcome of a ratio solver run; Mean holds ρ* (named for
// symmetry with core.Result).
type Result struct {
	// Ratio is ρ*, exact.
	Ratio numeric.Rat
	// Cycle attains the optimum ratio.
	Cycle []graph.ArcID
	// Exact reports whether Ratio is exact (always true under default
	// options).
	Exact bool
	// Counts holds operation counts.
	Counts counter.Counts
	// Certificate is the exact optimality proof, present if and only if the
	// run was driven with core.Options.Certify and the proof succeeded.
	Certificate *core.Certificate
}

// Algorithm is the uniform solver interface, mirroring core.Algorithm.
type Algorithm interface {
	Name() string
	// Solve computes the minimum cycle ratio of a strongly connected cyclic
	// graph in which every cycle has positive total transit time.
	Solve(g *graph.Graph, opt core.Options) (Result, error)
}

var registry = map[string]func() Algorithm{}

func register(name string, ctor func() Algorithm) {
	if _, dup := registry[name]; dup {
		panic("ratio: duplicate algorithm name " + name)
	}
	// Mirror core's panic-free boundary: every handed-out instance converts
	// numeric overflow panics into ErrNumericRange.
	registry[name] = func() Algorithm { return guardedAlg{ctor()} }
}

// ByName returns a fresh instance of the named ratio algorithm. Valid names
// are the ones in Names, plus the meta-algorithm "portfolio" (optionally
// with an explicit roster, e.g. "portfolio:howard+sternbrocot"), which races
// several exact solvers and returns the first answer.
func ByName(name string) (Algorithm, error) {
	if name == ratioPortfolioName || strings.HasPrefix(name, ratioPortfolioName+":") {
		return portfolioByName(name)
	}
	ctor, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("ratio: unknown algorithm %q (known: %v, plus %q)", name, Names(), ratioPortfolioName)
	}
	return ctor(), nil
}

// Names lists the registered ratio algorithms, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// All returns one instance of every registered ratio algorithm.
func All() []Algorithm {
	names := Names()
	out := make([]Algorithm, len(names))
	for i, name := range names {
		out[i], _ = ByName(name)
	}
	return out
}

// checkInput validates the shared Solve preconditions: strong connectivity,
// at least one cycle, non-negative transit times, and no zero-transit cycle
// (a cycle within the zero-transit arc subgraph would have an undefined
// ratio).
func checkInput(g *graph.Graph) error {
	if g.NumNodes() == 0 || g.NumArcs() == 0 {
		return ErrAcyclic
	}
	for _, a := range g.Arcs() {
		if a.Transit < 0 {
			return fmt.Errorf("ratio: negative transit time on arc %d->%d", a.From, a.To)
		}
	}
	if !graph.IsStronglyConnected(g) {
		return ErrNotStronglyConnected
	}
	if g.NumNodes() == 1 {
		hasLoop := false
		for _, a := range g.Arcs() {
			if a.From == a.To {
				hasLoop = true
			}
		}
		if !hasLoop {
			return ErrAcyclic
		}
	}
	// Zero-transit cycles: any cycle among the t = 0 arcs.
	var zeroArcs []graph.Arc
	for _, a := range g.Arcs() {
		if a.Transit == 0 {
			zeroArcs = append(zeroArcs, a)
		}
	}
	if len(zeroArcs) > 0 {
		zg := graph.FromArcs(g.NumNodes(), zeroArcs)
		if graph.HasCycle(zg) {
			return ErrNonPositiveTransit
		}
	}
	return nil
}

// MinimumCycleRatio computes ρ* of an arbitrary graph with the given
// algorithm, decomposing into strongly connected components exactly like
// core.MinimumCycleMean.
func MinimumCycleRatio(g *graph.Graph, algo Algorithm, opt core.Options) (res Result, err error) {
	defer core.RecoverNumericRange(&err, ErrNumericRange)
	res, err = minimumCycleRatioAny(g, algo, opt)
	if err == nil && opt.Certify {
		if cerr := certifyRatio(g, &res, opt.Tracer); cerr != nil {
			return Result{}, cerr
		}
	}
	return res, err
}

// emitSCC mirrors core's decomposition event for the ratio driver; start is
// when the decomposition began, read only when tracing is enabled.
func emitSCC(tr *obs.Trace, comps []graph.Component, start time.Time) {
	if !tr.Enabled() {
		return
	}
	ev := obs.SCCEvent{Components: len(comps), Sizes: make([]int, len(comps)), Duration: time.Since(start)}
	for i, c := range comps {
		ev.Sizes[i] = c.Graph.NumNodes()
		ev.Nodes += c.Graph.NumNodes()
		ev.Arcs += c.Graph.NumArcs()
	}
	tr.SCC(ev)
}

// minimumCycleRatioAny is MinimumCycleRatio without the certification and
// recovery wrapper.
func minimumCycleRatioAny(g *graph.Graph, algo Algorithm, opt core.Options) (Result, error) {
	var start time.Time
	if opt.Tracer.Enabled() {
		start = time.Now()
	}
	comps := graph.CyclicComponents(g)
	if len(comps) == 0 {
		return Result{}, ErrAcyclic
	}
	emitSCC(opt.Tracer, comps, start)
	var (
		best    Result
		found   bool
		scratch prep.Scratch // kernelization arrays, reused across components
	)
	for ci, comp := range comps {
		var (
			r   Result
			err error
		)
		sub := opt.WithTraceComponent(ci)
		if opt.Kernelize {
			kern := scratch.KernelizeTraced(comp.Graph, prep.Ratio, opt.Tracer, ci)
			if found && kern.Err == nil && kern.HasBounds && !kern.Lower.Less(best.Ratio) {
				// Cross-SCC pruning: every cycle of this component has ratio
				// at least kern.Lower ≥ the incumbent, so it cannot win.
				continue
			}
			r, err = solveComponentKernelized(algo, sub, comp.Graph, kern)
		} else {
			r, err = algo.Solve(comp.Graph, sub)
		}
		if err != nil {
			return Result{}, fmt.Errorf("ratio: %s on component of %d nodes: %w", algo.Name(), comp.Graph.NumNodes(), err)
		}
		cycle := make([]graph.ArcID, len(r.Cycle))
		for i, id := range r.Cycle {
			cycle[i] = comp.ArcMap[id]
		}
		r.Cycle = cycle
		if !found || r.Ratio.Less(best.Ratio) {
			counts := best.Counts
			counts.Add(r.Counts)
			best = r
			best.Counts = counts
			found = true
		} else {
			best.Counts.Add(r.Counts)
		}
	}
	return best, nil
}

// solveComponentKernelized solves one strongly connected cyclic component g
// through its Ratio-mode kernel. Unlike the mean problem, a contracted ratio
// kernel is still a plain ratio instance (transit times accumulate), so the
// caller's algorithm solves it directly, with sharpened ρ* bounds when
// available. Any kernel-solve failure falls back to an unkernelized solve of
// the original component: accumulated kernel weights can exceed a solver's
// range even when the original weights do not, and the raw solve also
// reproduces the exact diagnostics an unkernelized run would report.
func solveComponentKernelized(algo Algorithm, opt core.Options, g *graph.Graph, kern *prep.Kernel) (Result, error) {
	if kern.Err != nil || (kern.Solved && !kern.HasCandidate) {
		return algo.Solve(g, opt)
	}
	var best Result
	have := false
	if kern.HasCandidate {
		best = Result{Ratio: kern.CandidateValue, Cycle: kern.CandidateCycle(), Exact: true}
		have = true
	}
	if !kern.Solved {
		sub := opt
		if kern.HasBounds {
			lo, hi := kern.Lower, kern.Upper
			sub.LambdaLower, sub.LambdaUpper = &lo, &hi
		}
		r, err := algo.Solve(kern.G, sub)
		if err != nil {
			return algo.Solve(g, opt)
		}
		r.Cycle = kern.ExpandCycle(r.Cycle)
		cts := r.Counts
		if !have || r.Ratio.Less(best.Ratio) {
			best = r
		}
		best.Counts = cts
	}
	return best, nil
}

// MaximumCycleRatio computes the maximum cycle ratio by weight negation.
// This is the quantity CAD applications usually need: the iteration bound
// of a dataflow graph and the cycle period of an event graph are maximum
// ratios.
func MaximumCycleRatio(g *graph.Graph, algo Algorithm, opt core.Options) (Result, error) {
	r, err := MinimumCycleRatio(g.NegateWeights(), algo, opt)
	if err != nil {
		return Result{}, err
	}
	r.Ratio = r.Ratio.Neg()
	if r.Certificate != nil {
		// The proof ran on the negated instance; report it in the caller's
		// orientation (arc IDs are shared between g and its negation).
		r.Certificate.Value = r.Certificate.Value.Neg()
		r.Certificate.Maximize = true
	}
	return r, nil
}

// cycleRatio returns w(C)/t(C) for a cycle, or ok=false if t(C) <= 0.
func cycleRatio(g *graph.Graph, cycle []graph.ArcID) (numeric.Rat, bool) {
	t := g.CycleTransit(cycle)
	if t <= 0 {
		return numeric.Rat{}, false
	}
	return numeric.NewRat(g.CycleWeight(cycle), t), true
}

// extractCriticalRatioCycle returns a cycle whose ratio is exactly rho,
// assuming rho = ρ*: shortest distances under the scaled weights
// q·w − p·t leave the critical (tight) arcs, any cycle of which has ratio
// exactly ρ*.
func extractCriticalRatioCycle(g *graph.Graph, rho numeric.Rat) ([]graph.ArcID, error) {
	p, q := rho.Num(), rho.Den()
	o := newOracle(g, core.Options{}, nil)
	defer o.Close()
	neg, _, err := o.Probe(p, q)
	if err != nil {
		return nil, err
	}
	if neg {
		return nil, fmt.Errorf("ratio: a cycle with ratio below %v exists", rho)
	}
	cycle, ok := o.TightCycle(p, q)
	if !ok {
		return nil, fmt.Errorf("ratio: no cycle of ratio %v found", rho)
	}
	return cycle, nil
}
