// Package core implements the ten minimum mean cycle algorithms of the
// DAC'99 study — Burns, KO, YTO, Howard, HO, Karp, DG, Lawler, Karp2, OA1
// (plus OA2) — behind one uniform interface, together with the
// strongly-connected-component driver, critical-cycle extraction, and the
// critical-subgraph computation from the paper's Section 2.
//
// Every algorithm reports the exact minimum cycle mean λ* as a rational
// (cycle means of integer-weighted graphs are rationals with denominator at
// most n), the critical cycle achieving it, and the representative operation
// counts used by the paper's experimental comparison.
//
// The Solve method of an Algorithm requires its input to be strongly
// connected and cyclic, exactly as the paper assumes ("We assume that the
// input graph G to the algorithm in context is cyclic and strongly
// connected"). The package-level MinimumCycleMean / MaximumCycleMean
// functions accept arbitrary graphs and perform the SCC decomposition the
// paper describes: solve each cyclic component, return the best.
package core

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/counter"
	"repro/internal/graph"
	"repro/internal/ncd"
	"repro/internal/numeric"
	"repro/internal/obs"
	"repro/internal/pq"
	"repro/internal/prep"
)

// Errors returned by the solvers and drivers.
var (
	// ErrAcyclic means the graph (or every component) has no cycle, so no
	// cycle mean exists.
	ErrAcyclic = errors.New("core: graph has no cycles")
	// ErrNotStronglyConnected is returned by Algorithm.Solve when its
	// precondition is violated; use MinimumCycleMean for general graphs.
	ErrNotStronglyConnected = errors.New("core: graph is not strongly connected")
	// ErrIterationLimit means a safety iteration cap was hit; it indicates
	// either numerical trouble or a bug and should never occur on sane
	// integer-weighted inputs.
	ErrIterationLimit = errors.New("core: iteration limit exceeded")
	// ErrWeightRange means arc weights are too large for the exact integer
	// arithmetic (|w| must fit 32 bits for the scaled computations).
	ErrWeightRange = errors.New("core: arc weights exceed the supported ±(2^31−1) range")
	// ErrCanceled is returned by Solve when the run was canceled (by a
	// Portfolio race that another solver won, or by a caller-installed
	// cancellation); see Options.Canceled.
	ErrCanceled = errors.New("core: solve canceled")
	// ErrApproxMode is returned by the "approx" algorithm (and by front ends
	// validating requests) for an unrecognized Options.Approx.Mode.
	ErrApproxMode = errors.New("core: unknown approximation mode")
)

// MaxWeightMagnitude is the largest |weight| the exact scaled arithmetic
// supports (the largest magnitude that fits 32 bits); see ErrWeightRange.
const MaxWeightMagnitude = 1<<31 - 1

// Options carries the tunables shared by all algorithms. The zero value
// selects the defaults used throughout the paper's experiments.
type Options struct {
	// Epsilon is the precision of the approximate algorithms (Lawler, OA1,
	// OA2) and the improvement threshold of Howard's algorithm. Zero means
	// "exact": the approximate algorithms tighten their search until the
	// answer can be snapped to the unique rational with denominator <= n,
	// and Howard verifies its fixed point with an exact feasibility check.
	Epsilon float64

	// HeapKind selects the priority queue for KO and YTO. The default
	// (Fibonacci) is what the paper used via LEDA.
	HeapKind pq.Kind

	// NCD selects the negative-cycle detector for Lawler's binary-search
	// probes (the default, early-exit Bellman–Ford, matches an efficient
	// uniform implementation; ncd.Basic reproduces the textbook cost model;
	// ncd.Tarjan is the subtree-disassembly detector).
	NCD ncd.Method

	// MaxIterations caps main-loop iterations as a safety valve; zero
	// selects a generous per-algorithm default.
	MaxIterations int

	// Parallelism bounds the number of concurrently solved strongly
	// connected components in MinimumCycleMean. 0 and 1 select the
	// sequential driver (the zero value keeps the classic behavior);
	// negative means runtime.NumCPU(). The parallel driver returns
	// bit-identical results to the sequential one: components are merged
	// in decomposition order, so the winning mean, cycle, and operation
	// counts do not depend on goroutine scheduling.
	Parallelism int

	// Kernelize runs the internal/prep reduction pipeline on every
	// strongly connected component before dispatching a solver: self-loops
	// become closed-form candidates, degree-(1,1) chains are contracted,
	// two-node kernels are solved by enumeration, and per-kernel λ* bounds
	// prune components that cannot beat the incumbent. The reported mean is
	// identical to an unkernelized run and the critical cycle is expanded
	// back to original-graph arc IDs, but operation counts reflect the
	// (smaller) kernel actually solved, so counts are not comparable
	// between kernelized and raw runs.
	Kernelize bool

	// Certify makes the drivers (MinimumCycleMean, MaximumCycleMean,
	// Session.Solve) prove every answer before returning it: the value is
	// snapped to the unique rational with denominator ≤ n (continued-
	// fraction recovery, a no-op for the exact solvers), the critical
	// cycle's value is recomputed in exact arithmetic, and optimality is
	// verified by an exact no-negative-cycle check on the reweighted graph.
	// The proof is attached as Result.Certificate; a failed proof returns
	// ErrCertification instead of an unverified answer. The check costs one
	// O(m) integer pass when the solver's fixed point supplies node
	// potentials (howard and madani on a graph that is one strongly
	// connected component, unkernelized or with nothing to reduce), and
	// one O(nm) Bellman–Ford pass otherwise.
	Certify bool

	// Approx parameterizes the "approx" algorithm (the streaming
	// approximation tier in internal/approx): the requested tolerance and
	// scheme. Ignored by the exact algorithms. The zero value (Epsilon 0)
	// makes "approx" run its ε-interval bracketing and then sharpen to an
	// exact certified answer via Lawler, exactly as ApproxSharpen would.
	Approx ApproxOptions

	// ApproxSharpen makes the "approx" algorithm follow its ε-interval with
	// an exact Lawler pass seeded from the certified bounds (LambdaLower/
	// LambdaUpper clamping), buying back a bit-identical exact answer when
	// the graph is materialized and fits. No effect on other algorithms.
	ApproxSharpen bool

	// LambdaLower and LambdaUpper, when non-nil, narrow the initial
	// bracket of bound-driven algorithms (currently Lawler's binary
	// search). They must satisfy LambdaLower ≤ λ* ≤ LambdaUpper for the
	// graph being solved; the kernelization driver derives them from
	// per-kernel arc-value bounds. Invalid bounds yield undefined results.
	LambdaLower, LambdaUpper *numeric.Rat

	// Tracer, when non-nil, receives typed observability events from every
	// solve path: SCC decomposition, kernelization outcomes, per-component
	// solver start/finish with durations and operation counts, portfolio
	// race outcomes, Session cache traffic, and certification results. A nil
	// Tracer costs one pointer comparison per emission site and zero
	// allocations (see internal/obs). Hooks may be invoked concurrently by
	// the parallel SCC driver and portfolio races, so they must be safe for
	// concurrent use.
	Tracer *obs.Trace

	// cancel, when non-nil, makes the solvers return ErrCanceled soon
	// after the flag is set; the main loops poll it once per iteration.
	// Installed by Portfolio to stop losing solvers promptly.
	cancel *cancelFlag

	// traceComponent carries the 1-based index of the component being
	// solved, set by the drivers so solver events can report it; zero means
	// a direct Algorithm.Solve call (reported as component -1).
	traceComponent int
}

func (o Options) maxIter(def int) int {
	if o.MaxIterations > 0 {
		return o.MaxIterations
	}
	return def
}

// WithTraceComponent returns a copy of o tagged with the 0-based index of
// the component about to be solved, so solver events emitted under the
// returned Options report it. The core drivers tag internally; this exported
// form exists for sibling drivers (internal/ratio) that run the SCC
// decomposition outside this package.
func (o Options) WithTraceComponent(i int) Options {
	o.traceComponent = i + 1
	return o
}

// TraceComponent returns the component index tagged by WithTraceComponent,
// or -1 for a direct (driver-less) solve.
func (o Options) TraceComponent() int { return o.traceComponent - 1 }

// workers resolves Options.Parallelism to a worker count (>= 1).
func (o Options) workers() int {
	switch {
	case o.Parallelism < 0:
		return runtime.NumCPU()
	case o.Parallelism <= 1:
		return 1
	default:
		return o.Parallelism
	}
}

// Result is the outcome of one solver run.
type Result struct {
	// Mean is λ*, exact whenever Exact is true.
	Mean numeric.Rat
	// Cycle is a critical cycle (arc IDs into the solved graph) whose mean
	// equals Mean. Always non-empty when Exact.
	Cycle []graph.ArcID
	// Exact records whether Mean is exact; only epsilon-mode runs of the
	// approximate algorithms report false.
	Exact bool
	// ErrorBound, when Exact is false and the run came from the "approx"
	// tier, certifies |Mean − λ*| ≤ ErrorBound (λ* lies in
	// [Mean−ErrorBound, Mean]: the reported value is a real cycle's mean,
	// hence an upper bound). Zero for exact runs and for the legacy
	// epsilon-mode solvers, which declare no bound.
	ErrorBound float64
	// Counts holds the representative operation counts of the run.
	Counts counter.Counts
	// Certificate is the exact optimality proof, present if and only if the
	// run was driven with Options.Certify and the proof succeeded.
	Certificate *Certificate

	// potentials are node potentials of the solved graph that prove Mean
	// in one pass (see feasiblePotentials). Solvers whose fixed point holds
	// them set them only under Options.Certify; certification consumes
	// them, and drivers drop them when they do not index the certified
	// graph (see keepPotentials).
	potentials []int64
}

// Lambda returns λ* as a float64 convenience.
func (r Result) Lambda() float64 { return r.Mean.Float64() }

// Algorithm is the uniform interface all ten solvers implement.
type Algorithm interface {
	// Name returns the lower-case name used in the paper's tables
	// ("howard", "karp", "yto", ...).
	Name() string
	// Solve computes the minimum cycle mean of a strongly connected cyclic
	// graph.
	Solve(g *graph.Graph, opt Options) (Result, error)
}

// checkSolveInput enforces the shared Solve precondition and weight range.
func checkSolveInput(g *graph.Graph) error {
	if g.NumNodes() == 0 {
		return ErrAcyclic
	}
	if g.NumArcs() == 0 {
		return ErrAcyclic
	}
	if min, max := g.WeightRange(); min < -MaxWeightMagnitude || max > MaxWeightMagnitude {
		return ErrWeightRange
	}
	if !graph.IsStronglyConnected(g) {
		return ErrNotStronglyConnected
	}
	if g.NumNodes() == 1 {
		// Strongly connected single node: cyclic only with a self-loop.
		hasLoop := false
		for _, a := range g.Arcs() {
			if a.From == a.To {
				hasLoop = true
				break
			}
		}
		if !hasLoop {
			return ErrAcyclic
		}
	}
	return nil
}

// registry of algorithm constructors by name.
var registry = map[string]func() Algorithm{}

func register(name string, ctor func() Algorithm) {
	if _, dup := registry[name]; dup {
		panic("core: duplicate algorithm name " + name)
	}
	// Every instance handed out is wrapped in the panic-free boundary:
	// numeric overflow panics surface as ErrNumericRange, never as a crash.
	registry[name] = func() Algorithm { return guardedAlg{ctor()} }
}

// ByName returns a fresh instance of the named algorithm. Valid names are
// the ones in Names, plus the meta-algorithm "portfolio" (optionally with
// an explicit roster, e.g. "portfolio:howard+karp"), which races several
// solvers and returns the first exact answer; see NewPortfolio.
func ByName(name string) (Algorithm, error) {
	if name == portfolioName || strings.HasPrefix(name, portfolioName+":") {
		return portfolioByName(name)
	}
	ctor, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown algorithm %q (known: %v, plus %q)", name, Names(), portfolioName)
	}
	return ctor(), nil
}

// Names returns all registered algorithm names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// All returns one instance of every registered algorithm, ordered by name.
func All() []Algorithm {
	names := Names()
	out := make([]Algorithm, len(names))
	for i, name := range names {
		out[i], _ = ByName(name)
	}
	return out
}

// MinimumCycleMean computes λ* of an arbitrary graph with the given
// algorithm, using the paper's decomposition: partition into strongly
// connected components, solve each cyclic component, take the minimum.
// Cycle arc IDs in the result refer to g. Returns ErrAcyclic when g has no
// cycle.
//
// With Options.Parallelism > 1 the cyclic components are fanned out to a
// bounded worker pool; the result (mean, cycle, and operation counts) is
// bit-identical to the sequential driver's. The Algorithm must then be safe
// for concurrent Solve calls — every built-in solver is, as all per-run
// state lives in private workspaces.
func MinimumCycleMean(g *graph.Graph, algo Algorithm, opt Options) (res Result, err error) {
	// The driver itself runs exact rational arithmetic (kernel bounds,
	// incumbent comparisons), so the panic-free boundary sits here too.
	defer RecoverNumericRange(&err, ErrNumericRange)
	res, err = minimumCycleMeanAny(g, algo, opt)
	if err == nil && opt.Certify {
		if cerr := certifyMean(g, &res, opt.Tracer); cerr != nil {
			return Result{}, cerr
		}
	}
	return res, err
}

// sccStart reads the clock for an SCCEvent's Duration, only when tracing is
// enabled.
func sccStart(tr *obs.Trace) time.Time {
	if !tr.Enabled() {
		return time.Time{}
	}
	return time.Now()
}

// emitSCC reports a decomposition that began at start to the tracer; a no-op
// (and alloc-free) when tracing is disabled.
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

// minimumCycleMeanAny is MinimumCycleMean without the certification and
// recovery wrapper: SCC decomposition, per-component solve (sequential or
// parallel), merge.
func minimumCycleMeanAny(g *graph.Graph, algo Algorithm, opt Options) (Result, error) {
	start := sccStart(opt.Tracer)
	comps := graph.CyclicComponents(g)
	if len(comps) == 0 {
		return Result{}, ErrAcyclic
	}
	emitSCC(opt.Tracer, comps, start)
	if workers := opt.workers(); workers > 1 && len(comps) > 1 {
		return minimumCycleMeanParallel(algo, opt, comps, workers)
	}
	var (
		best     Result
		total    counter.Counts
		found    bool
		minLower float64
		anyBound bool
		scratch  prep.Scratch // kernelization arrays, reused across components
	)
	for ci, comp := range comps {
		var (
			r   Result
			err error
		)
		sub := opt
		sub.traceComponent = ci + 1
		var kern *prep.Kernel
		if opt.Kernelize {
			kern = scratch.KernelizeTraced(comp.Graph, prep.Mean, opt.Tracer, ci)
			if found && kern.Err == nil && kern.HasBounds && !kern.Lower.Less(best.Mean) {
				// Cross-SCC pruning: every cycle of this component has mean
				// at least kern.Lower ≥ the incumbent, so it cannot win —
				// unless its weights are out of range, in which case the
				// solver must still run to report ErrWeightRange exactly as
				// an unkernelized pass would.
				if min, max := comp.Graph.WeightRange(); min >= -MaxWeightMagnitude && max <= MaxWeightMagnitude {
					continue
				}
			}
			r, err = solveComponentKernelized(algo, sub, comp.Graph, kern)
		} else {
			r, err = algo.Solve(comp.Graph, sub)
		}
		if err != nil {
			return Result{}, fmt.Errorf("core: %s on component of %d nodes: %w", algo.Name(), comp.Graph.NumNodes(), err)
		}
		if !keepPotentials(g, comps, kern) {
			r.potentials = nil
		}
		total.Add(r.Counts)
		// Translate cycle arcs back to g.
		cycle := make([]graph.ArcID, len(r.Cycle))
		for i, id := range r.Cycle {
			cycle[i] = comp.ArcMap[id]
		}
		r.Cycle = cycle
		// The winner is chosen by smallest reported mean (an upper bound for
		// inexact components), but the global λ* can sit below the winner's
		// own interval when another component's certified lower bound is
		// smaller — track the weakest lower bound across all components.
		lower := r.Mean.Float64() - r.ErrorBound
		if r.ErrorBound > 0 {
			anyBound = true
		}
		if !found || lower < minLower {
			minLower = lower
		}
		if !found || r.Mean.Less(best.Mean) {
			best = r
			found = true
		}
	}
	best.Counts = total
	mergeErrorBound(&best, minLower, anyBound)
	return best, nil
}

// keepPotentials reports whether node potentials from the solve of comps[0]
// also index g, so certification can check them as they are: one cyclic
// component spans every node of g (components list their nodes in
// ascending order, so node IDs coincide) and was solved on itself — kern is
// nil, or an identity kernel aliasing the component. Otherwise the
// potentials belong to a smaller or renumbered graph and certification
// runs Bellman–Ford.
func keepPotentials(g *graph.Graph, comps []graph.Component, kern *prep.Kernel) bool {
	if len(comps) != 1 || comps[0].Graph.NumNodes() != g.NumNodes() {
		return false
	}
	return kern == nil || kern.G == comps[0].Graph
}

// mergeErrorBound widens the winning component's certified interval to
// cover every component's lower bound: λ* = min over components can lie
// anywhere in [minLower, best.Mean]. No-op unless some component declared a
// bound (legacy epsilon-mode results declare none and keep their historical
// semantics).
func mergeErrorBound(best *Result, minLower float64, anyBound bool) {
	if !anyBound {
		return
	}
	eb := best.Mean.Float64() - minLower
	if eb < best.ErrorBound {
		// Float cancellation (Mean − (Mean − bound)) can round a tiny bound
		// away; the winner's own certified bound is always a valid floor.
		eb = best.ErrorBound
	}
	if eb < 0 {
		eb = 0
	}
	best.ErrorBound = eb
	if eb > 0 {
		best.Exact = false
	}
}

// MaximumCycleMean computes the maximum cycle mean by negation
// (max_C w(C)/|C| = −min_C (−w)(C)/|C|), the standard reduction the paper
// relies on for the maximum problem variants.
func MaximumCycleMean(g *graph.Graph, algo Algorithm, opt Options) (Result, error) {
	r, err := MinimumCycleMean(g.NegateWeights(), algo, opt)
	if err != nil {
		return Result{}, err
	}
	r.Mean = r.Mean.Neg()
	if r.Certificate != nil {
		// The proof ran on the negated instance; report it in the caller's
		// orientation (arc IDs are shared between g and its negation).
		r.Certificate.Value = r.Certificate.Value.Neg()
		r.Certificate.Maximize = true
	}
	return r, nil
}

// CriticalSubgraph computes the critical subgraph of G_λ* as defined in the
// paper's Section 2: after fixing optimal potentials d (shortest distances
// in G_λ*), an arc is critical when d(v) − d(u) = w(u,v) − λ*, a node when
// incident to a critical arc. It returns the set of critical arc IDs of g
// (in increasing order) and the induced critical subgraph. λ must be
// feasible (λ ≤ λ*), or an error is returned; with λ = λ* the subgraph
// contains all minimum mean cycles.
func CriticalSubgraph(g *graph.Graph, lambda numeric.Rat) (critical []graph.ArcID, sub *graph.Graph, err error) {
	dist, neg := bellmanFordScaled(g, lambda.Num(), lambda.Den(), nil)
	if neg != nil {
		return nil, nil, fmt.Errorf("core: λ = %v is infeasible (a cycle of smaller mean exists)", lambda)
	}
	p, q := lambda.Num(), lambda.Den()
	nodes := make([]bool, g.NumNodes())
	for id := graph.ArcID(0); int(id) < g.NumArcs(); id++ {
		a := g.Arc(id)
		if dist[a.From]+q*a.Weight-p == dist[a.To] {
			critical = append(critical, id)
			nodes[a.From] = true
			nodes[a.To] = true
		}
	}
	var members []graph.NodeID
	for v, in := range nodes {
		if in {
			members = append(members, graph.NodeID(v))
		}
	}
	sub, _ = g.InducedSubgraph(members)
	return critical, sub, nil
}
