// Package ratio implements the minimum cost-to-time ratio problem (MCRP):
// ten engines behind one Algorithm interface. Howard's policy iteration and
// the KO and YTO parametric shortest-path algorithms are adapters over
// core's one Howard, KO and YTO, run in ratio form (core.HowardRatio,
// core.KORatio, core.YTORatio); Lawler's bisection and Burns' primal-dual
// method are the DAC'99 study's algorithms in their full ratio form;
// "expand" is the classical transit-time-expansion reduction to the
// minimum mean problem (the Hartmann–Orlin O(Tm) approach); Megiddo's
// parametric search, Dinkelbach's iteration, the Stern–Brocot mediant
// search and BHK's bisection complete the roster. Lawler, Burns, Megiddo,
// Dinkelbach, Stern–Brocot and BHK share one parametric negative-cycle
// oracle (oracle.go).
//
// The cycle ratio of a cycle C is ρ(C) = w(C)/t(C) with t(C) > 0; the
// minimum mean problem is the special case where every transit time is 1,
// which is how the paper reduces its study to MCMP. The package's drivers,
// certification and portfolio race are core's, run in ratio form through
// core.SolveRatio and core.Race, so means and ratios share one pipeline.
// This package keeps the general form so the CAD applications in
// internal/perf (iteration bounds of dataflow graphs, rate analysis) can use
// true transit times.
package ratio

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/counter"
	"repro/internal/graph"
	"repro/internal/numeric"
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

// Result is the outcome of a ratio solver run; Ratio holds ρ* where
// core.Result has Mean.
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
	zeroTransit := false
	for _, a := range g.Arcs() {
		if a.Transit < 0 {
			return fmt.Errorf("ratio: negative transit time on arc %d->%d", a.From, a.To)
		}
		zeroTransit = zeroTransit || a.Transit == 0
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
	if zeroTransit {
		var zeroArcs []graph.Arc
		for _, a := range g.Arcs() {
			if a.Transit == 0 {
				zeroArcs = append(zeroArcs, a)
			}
		}
		if graph.HasCycle(graph.FromArcs(g.NumNodes(), zeroArcs)) {
			return ErrNonPositiveTransit
		}
	}
	return nil
}

// sentinels name the failures of core's driver, certifier and racer in
// this package's terms.
var sentinels = core.Sentinels{
	Prefix: "ratio", Acyclic: ErrAcyclic, Certification: ErrCertification, NumericRange: ErrNumericRange,
}

// MinimumCycleRatio computes ρ* of an arbitrary graph with the given
// algorithm, decomposing into strongly connected components exactly like
// core.MinimumCycleMean: it runs core's component driver and certifier in
// ratio form, so Options.Parallelism, Kernelize and Certify apply as they do
// there.
func MinimumCycleRatio(g *graph.Graph, algo Algorithm, opt core.Options) (Result, error) {
	r, err := core.SolveRatio(g, engine{algo}, opt, sentinels, false)
	return fromCore(r), err
}

// MaximumCycleRatio computes the maximum cycle ratio by weight negation.
// This is the quantity CAD applications usually need: the iteration bound
// of a dataflow graph and the cycle period of an event graph are maximum
// ratios.
func MaximumCycleRatio(g *graph.Graph, algo Algorithm, opt core.Options) (Result, error) {
	r, err := core.SolveRatio(g, engine{algo}, opt, sentinels, true)
	return fromCore(r), err
}

// engine presents a ratio Algorithm to core's driver and racer, which run
// in ratio form with ρ* in core.Result.Mean.
type engine struct{ Algorithm }

func (e engine) Solve(g *graph.Graph, opt core.Options) (core.Result, error) {
	r, err := e.Algorithm.Solve(g, opt)
	return core.Result{Mean: r.Ratio, Cycle: r.Cycle, Exact: r.Exact, Counts: r.Counts}, err
}

// coreAlg presents one of core's ratio-form engines (core.HowardRatio,
// core.KORatio, core.YTORatio) as a ratio Algorithm: it validates the input
// and translates the result and core's error sentinels.
type coreAlg struct {
	name  string
	solve func(*graph.Graph, core.Options) (core.Result, error)
}

func (a coreAlg) Name() string { return a.name }

func (a coreAlg) Solve(g *graph.Graph, opt core.Options) (Result, error) {
	if err := checkInput(g); err != nil {
		return Result{}, err
	}
	r, err := a.solve(g, opt)
	switch {
	case err == nil:
		return fromCore(r), nil
	case errors.Is(err, core.ErrNumericRange):
		return Result{}, fmt.Errorf("%w (%v)", ErrNumericRange, err)
	case errors.Is(err, core.ErrIterationLimit):
		return Result{}, ErrIterationLimit
	case errors.Is(err, core.ErrAcyclic):
		return Result{}, ErrAcyclic
	}
	return Result{}, err // core.ErrCanceled passes through
}

// fromCore is the Result adapter back from core's ratio form.
func fromCore(r core.Result) Result {
	return Result{Ratio: r.Mean, Cycle: r.Cycle, Exact: r.Exact, Counts: r.Counts, Certificate: r.Certificate}
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
