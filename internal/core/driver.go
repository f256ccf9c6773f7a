package core

// The one component driver. MinimumCycleMean, MaximumCycleMean,
// Session.Solve and internal/ratio's MinimumCycleRatio and
// MaximumCycleRatio all run it: split the graph into strongly connected
// components (the paper's decomposition; under Options.Kernelize, the graph
// with its chains contracted), solve each cyclic component — sequentially,
// or in a bounded worker pool under Options.Parallelism, and through its
// kernel under Options.Kernelize — translate each witness cycle back to the
// input graph, merge the components in decomposition order, and certify the
// winner, on the input graph, under Options.Certify.
//
// Means and ratios run the same code under a transit view fixed per solve
// (the paper's §1: the mean problem is the ratio problem with every transit
// 1). Where the two problems genuinely differ, the code branches on the view
// (form.unit) instead of keeping a second copy: the kernel mode and the
// contracted-kernel solve, the mean form's ±(2^31−1) weight contract, and
// the rule for falling back when a kernel solve fails (see kernel.go).

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/counter"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/prep"
)

// Sentinels are the errors the driver, the certifier and the portfolio
// racer report in a front end's own terms. Prefix starts the message of a
// wrapped component or racer failure; Acyclic, Certification and
// NumericRange are what the front end's callers match with errors.Is.
// Engine errors pass through wrapped with %w, never remapped.
type Sentinels struct {
	Prefix                               string
	Acyclic, Certification, NumericRange error
}

// form is the transit view of one solve and the names its errors carry:
// unit reads every transit as 1 (the mean problem, core's front end),
// otherwise each arc's Transit field is read (the ratio problem,
// internal/ratio's front end).
type form struct {
	unit bool
	Sentinels
}

var meanForm = form{unit: true, Sentinels: Sentinels{
	Prefix: "core", Acyclic: ErrAcyclic, Certification: ErrCertification, NumericRange: ErrNumericRange,
}}

// noun and symbol name the optimum in certification messages.
func (f form) noun() string {
	if f.unit {
		return "mean"
	}
	return "ratio"
}

func (f form) symbol() string {
	if f.unit {
		return "λ*"
	}
	return "ρ*"
}

// kernelMode is the prep reduction matching the view: a mean kernel counts
// contracted arcs as its transit, a ratio kernel sums the arcs' transits.
func (f form) kernelMode() prep.Mode {
	if f.unit {
		return prep.Mean
	}
	return prep.Ratio
}

// SolveRatio is the ratio-form entry point behind internal/ratio's
// MinimumCycleRatio and MaximumCycleRatio: the component driver and the
// certifier of MinimumCycleMean with each arc's Transit read as its transit
// time. algo solves one strongly connected component in ratio form, with
// ρ* in Result.Mean; Options apply as for MinimumCycleMean, Parallelism
// included. Failures of the driver and the certifier carry s. With maximize
// the maximum ratio is returned, by weight negation.
func SolveRatio(g *graph.Graph, algo Algorithm, opt Options, s Sentinels, maximize bool) (Result, error) {
	return solve(g, algo, opt, form{Sentinels: s}, maximize)
}

// solve runs the pipeline on g, or with maximize on its weight negation
// (max_C w(C)/t(C) = −min_C (−w)(C)/t(C)), reporting the optimum and its
// certificate in the caller's orientation; arc IDs are shared between g and
// its negation.
func solve(g *graph.Graph, algo Algorithm, opt Options, f form, maximize bool) (Result, error) {
	if !maximize {
		return solveMin(g, algo, opt, f)
	}
	r, err := solveMin(g.NegateWeights(), algo, opt, f)
	if err != nil {
		return Result{}, err
	}
	r.Mean = r.Mean.Neg()
	if r.Certificate != nil {
		r.Certificate.Value = r.Certificate.Value.Neg()
		r.Certificate.Maximize = true
	}
	return r, nil
}

// solveMin is the driver followed, under Options.Certify, by the certifier.
// The driver itself runs exact rational arithmetic (kernel bounds, incumbent
// comparisons), so the panic-free boundary covers both.
func solveMin(g *graph.Graph, algo Algorithm, opt Options, f form) (res Result, err error) {
	defer RecoverNumericRange(&err, f.NumericRange)
	res, err = solveComponents(g, algo, opt, f)
	if err == nil && opt.Certify {
		if cerr := certify(g, &res, opt.Tracer, f); cerr != nil {
			return Result{}, cerr
		}
	}
	return res, err
}

// solveComponents is the driver without certification: SCC split,
// per-component solve (sequential or pooled), merge.
func solveComponents(g *graph.Graph, algo Algorithm, opt Options, f form) (Result, error) {
	tr := opt.Tracer
	var start time.Time
	if tr.Enabled() {
		start = time.Now()
	}
	p := split(g, opt.Kernelize, f)
	if p.len() == 0 {
		return Result{}, f.Acyclic
	}
	emitSCC(tr, p, start)
	var m merger
	if workers := opt.workers(); workers > 1 && p.len() > 1 {
		outs := solvePool(g, p, algo, opt, f, min(workers, p.len()))
		for i := range outs {
			if outs[i].err != nil {
				// The sequential driver's error: the earliest failing
				// component in decomposition order.
				return Result{}, componentError(f, algo, p, i, outs[i].err)
			}
			m.add(outs[i].res)
		}
		return m.result(), nil
	}
	var scratch prep.Scratch // kernelization arrays, reused across components
	for ci := 0; ci < p.len(); ci++ {
		var kern *prep.Kernel
		if opt.Kernelize {
			kern = p.kernelize(&scratch, ci, f, tr)
			// The mean form still solves a component whose weights leave
			// ±(2^31−1), so that it reports ErrWeightRange exactly as an
			// unkernelized pass would.
			if m.prunes(kern) && p.inRange(ci, f) {
				continue
			}
		}
		r, err := solveComponent(g, p, ci, algo, opt, f, kern)
		if err != nil {
			return Result{}, componentError(f, algo, p, ci, err)
		}
		m.add(r)
	}
	return m.result(), nil
}

// parts is the decomposition the driver solves: g's cyclic components, in
// graph.CyclicComponents order. Under Options.Kernelize, when g has a chain
// to contract, they come from prep.Contract instead: each component's kernel
// is reduced from the contracted graph, and the component itself is built
// only when a fallback solves it raw. A mean solve contracts only weights in
// range, so that no component needs its own copy to check them.
type parts struct {
	comps []graph.Component // under con, each built on first use
	con   *prep.Contraction
}

func split(g *graph.Graph, kernelize bool, f form) parts {
	if kernelize && (!f.unit || weightsInRange(g)) {
		if c := prep.Contract(g, f.kernelMode()); c != nil {
			return parts{comps: make([]graph.Component, c.Len()), con: c}
		}
	}
	return parts{comps: graph.CyclicComponents(g)}
}

func (p parts) len() int { return len(p.comps) }

// size returns component i's node and arc count.
func (p parts) size(i int) (nodes, arcs int) {
	if p.con != nil {
		return p.con.Size(i)
	}
	return p.comps[i].Graph.NumNodes(), p.comps[i].Graph.NumArcs()
}

// raw returns component i. The pool hands each component to one worker, so
// workers build distinct entries.
func (p parts) raw(i int) graph.Component {
	if p.comps[i].Graph == nil {
		p.comps[i] = p.con.Component(i)
	}
	return p.comps[i]
}

// kernelize reduces component i on s and reports its KernelEvent.
func (p parts) kernelize(s *prep.Scratch, i int, f form, tr *obs.Trace) *prep.Kernel {
	if p.con != nil {
		return p.con.KernelizeTraced(s, i, tr)
	}
	return s.KernelizeTraced(p.comps[i].Graph, f.kernelMode(), tr, i)
}

// inRange reports whether component i meets the mean form's weight
// contract; a ratio solve has none.
func (p parts) inRange(i int, f form) bool {
	return !f.unit || p.con != nil || weightsInRange(p.comps[i].Graph)
}

// componentOut is one pooled component's outcome, stored at its slot.
type componentOut struct {
	res Result
	err error
}

// solvePool solves the components on a bounded pool of workers, distributed
// through an atomic work index, each worker with its own kernelization
// scratch. The caller merges the outcomes in decomposition order after the
// join, so the result does not depend on goroutine scheduling. There is no
// cross-SCC pruning here: the incumbent would depend on completion order.
func solvePool(g *graph.Graph, p parts, algo Algorithm, opt Options, f form, workers int) []componentOut {
	outs := make([]componentOut, p.len())
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch prep.Scratch
			for {
				i := int(next.Add(1)) - 1
				if i >= len(outs) {
					return
				}
				// A panic inside a worker goroutine would kill the process
				// whatever the caller recovers, so the numeric boundary lives
				// here: the overflow becomes this component's error.
				func() {
					defer RecoverNumericRange(&outs[i].err, f.NumericRange)
					var kern *prep.Kernel
					if opt.Kernelize {
						kern = p.kernelize(&scratch, i, f, opt.Tracer)
					}
					outs[i].res, outs[i].err = solveComponent(g, p, i, algo, opt, f, kern)
				}()
			}
		}()
	}
	wg.Wait()
	return outs
}

// solveComponent solves component ci of g, through kern when it is non-nil,
// and returns the result with its witness cycle in g's arc IDs. Solver
// events report the component's index; tracer hooks see concurrent
// emissions from the pool, which the obs contract requires them to
// tolerate.
func solveComponent(g *graph.Graph, p parts, ci int, algo Algorithm, opt Options, f form, kern *prep.Kernel) (Result, error) {
	opt.traceComponent = ci + 1
	var (
		r      Result
		arcMap []graph.ArcID
		err    error
	)
	if kern != nil {
		r, arcMap, err = solveKernel(p, ci, algo, opt, f, kern)
	} else {
		r, err = algo.Solve(p.comps[ci].Graph, opt)
		arcMap = p.comps[ci].ArcMap
	}
	if err != nil {
		return Result{}, err
	}
	if p.con != nil || !keepPotentials(g, p.comps, kern) {
		r.potentials = nil
	}
	if arcMap != nil {
		cycle := make([]graph.ArcID, len(r.Cycle))
		for i, id := range r.Cycle {
			cycle[i] = arcMap[id]
		}
		r.Cycle = cycle
	}
	return r, nil
}

func componentError(f form, algo Algorithm, p parts, ci int, err error) error {
	nodes, _ := p.size(ci)
	return fmt.Errorf("%s: %s on component of %d nodes: %w", f.Prefix, algo.Name(), nodes, err)
}

// emitSCC reports a decomposition that began at start to the tracer; a no-op
// (and alloc-free) when tracing is disabled.
func emitSCC(tr *obs.Trace, p parts, start time.Time) {
	if !tr.Enabled() {
		return
	}
	ev := obs.SCCEvent{Components: p.len(), Sizes: make([]int, p.len()), Duration: time.Since(start)}
	for i := range ev.Sizes {
		nodes, arcs := p.size(i)
		ev.Sizes[i] = nodes
		ev.Nodes += nodes
		ev.Arcs += arcs
	}
	tr.SCC(ev)
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

// merger is the one merge of component results, fed in decomposition order
// by the sequential driver, the pool and Session alike. The smallest
// reported value wins (an upper bound for inexact components) and the
// operation counts add up.
type merger struct {
	best  Result
	total counter.Counts
	found bool
	// minLower is the weakest certified lower bound over all components:
	// the global optimum can sit below the winner's own interval when
	// another component's lower bound is smaller. anyBound records whether
	// any component declared a bound at all.
	minLower float64
	anyBound bool
}

func (m *merger) add(r Result) {
	m.total.Add(r.Counts)
	lower := r.Mean.Float64() - r.ErrorBound
	if r.ErrorBound > 0 {
		m.anyBound = true
	}
	if !m.found || lower < m.minLower {
		m.minLower = lower
	}
	if !m.found || r.Mean.Less(m.best.Mean) {
		m.best = r
		m.found = true
	}
}

// prunes reports whether the sequential driver may skip a component whose
// kernel bounds every cycle value at or above the incumbent (cross-SCC
// pruning).
func (m *merger) prunes(kern *prep.Kernel) bool {
	return m.found && kern.Err == nil && kern.HasBounds && !kern.Lower.Less(m.best.Mean)
}

// result returns the winner with the summed counts. When some component
// declared an error bound, the winner's interval widens to cover every
// component's lower bound: the optimum can lie anywhere in
// [minLower, best.Mean]. Results without bounds (exact runs, and the legacy
// epsilon-mode solvers) keep their own semantics.
func (m *merger) result() Result {
	best := m.best
	best.Counts = m.total
	if !m.anyBound {
		return best
	}
	eb := best.Mean.Float64() - m.minLower
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
	return best
}
