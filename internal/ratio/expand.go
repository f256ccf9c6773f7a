package ratio

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
)

// maxExpandArcs bounds the size of the transit-expanded graph expandAlg is
// willing to build (it allocates one arc per unit of total transit time).
const maxExpandArcs = 1 << 26

func init() {
	// The inner solver is resolved lazily at Solve time: an init-time
	// core.ByName failure would panic during package initialization, where no
	// caller can recover it.
	register("expand", func() Algorithm { return expandAlg{} })
}

// NewExpand returns the transit-expansion ratio algorithm running the given
// minimum-mean solver on the expanded graph. Registering "expand" uses
// Howard's algorithm inside; this constructor lets benches ablate the inner
// solver.
func NewExpand(inner core.Algorithm) Algorithm { return expandAlg{inner: inner} }

// expandAlg is the classical reduction from the ratio problem to the mean
// problem used by the Hartmann–Orlin O(Tm) algorithm ("finding minimum cost
// to time ratio cycles with small integral transit times"): replace every
// arc of transit time t ≥ 1 by a path of t unit-transit arcs carrying the
// weight on the first arc. A cycle's expanded length equals its total
// transit time, so the minimum cycle mean of the expanded graph is exactly
// the minimum cycle ratio of the original. The expansion is pseudo-
// polynomial (T = total transit time arcs), which is why the paper lists
// these algorithms separately.
//
// Requires every transit time >= 1 (zero-transit arcs have no expanded
// length; graphs with them need one of the direct ratio algorithms).
type expandAlg struct {
	// inner is the minimum-mean solver run on the expanded graph; nil means
	// resolve Howard's algorithm lazily on first Solve.
	inner core.Algorithm
}

func (e expandAlg) Name() string {
	if e.inner == nil {
		return "expand-howard"
	}
	return "expand-" + e.inner.Name()
}

func (e expandAlg) Solve(g *graph.Graph, opt core.Options) (Result, error) {
	if e.inner == nil {
		inner, err := core.ByName("howard")
		if err != nil {
			return Result{}, fmt.Errorf("ratio: expand inner solver: %w", err)
		}
		e.inner = inner
	}
	if err := checkInput(g); err != nil {
		return Result{}, err
	}
	for _, a := range g.Arcs() {
		if a.Transit < 1 {
			return Result{}, fmt.Errorf("ratio: expand requires transit times >= 1, arc %d->%d has %d",
				a.From, a.To, a.Transit)
		}
	}
	// The expanded graph has T = Σt arcs; refuse to materialize an instance
	// no solver could process rather than exhausting memory. This keeps the
	// pseudo-polynomial reduction panic- and OOM-free on hostile transits.
	if t := g.TotalTransit(); t > maxExpandArcs {
		return Result{}, fmt.Errorf("%w: transit expansion needs %d arcs (limit %d)", ErrNumericRange, t, int64(maxExpandArcs))
	}

	exp, origin := Expand(g)
	res, err := e.inner.Solve(exp, opt)
	if err != nil {
		err = fmt.Errorf("ratio: inner %s on expanded graph: %w", e.inner.Name(), err)
		if errors.Is(err, core.ErrWeightRange) || errors.Is(err, core.ErrNumericRange) {
			err = innerRangeError{err}
		}
		return Result{}, err
	}

	// Map the expanded cycle back: keep the arcs that begin original arcs,
	// in order.
	var cycle []graph.ArcID
	for _, id := range res.Cycle {
		if orig := origin[id]; orig >= 0 {
			cycle = append(cycle, orig)
		}
	}
	r, ok := cycleRatio(g, cycle)
	if !ok {
		return Result{}, fmt.Errorf("ratio: expanded cycle maps to zero-transit cycle")
	}
	if !r.Equal(res.Mean) {
		return Result{}, fmt.Errorf("ratio: expansion mismatch: mean %v vs mapped ratio %v", res.Mean, r)
	}
	return Result{Ratio: r, Cycle: cycle, Exact: res.Exact, Counts: res.Counts}, nil
}

// Expand builds the transit-expanded graph: each arc (u, v) with transit t
// becomes a chain u → x₁ → … → x_{t−1} → v of t arcs, the first carrying
// the arc's weight and all carrying transit 1. origin[i] gives, for each
// expanded arc, the original ArcID it begins, or −1 for chain fillers.
func Expand(g *graph.Graph) (exp *graph.Graph, origin []graph.ArcID) {
	b := graph.NewBuilder(g.NumNodes(), int(g.TotalTransit()))
	b.AddNodes(g.NumNodes())
	for id := graph.ArcID(0); int(id) < g.NumArcs(); id++ {
		a := g.Arc(id)
		if a.Transit == 1 {
			b.AddArc(a.From, a.To, a.Weight)
			origin = append(origin, id)
			continue
		}
		prev := a.From
		for step := int64(0); step < a.Transit; step++ {
			var next graph.NodeID
			if step == a.Transit-1 {
				next = a.To
			} else {
				next = b.AddNode()
			}
			w := int64(0)
			orig := graph.ArcID(-1)
			if step == 0 {
				w = a.Weight
				orig = id
			}
			b.AddArc(prev, next, w)
			origin = append(origin, orig)
			prev = next
		}
	}
	return b.Build(), origin
}

// innerRangeError is a range error of expand's inner mean solver. It
// matches ErrNumericRange, the class every other ratio engine reports
// out-of-range input under, and keeps the inner error's text and sentinel:
// a weight beyond the inner solver's ±(2^31−1) contract fits int64, so it
// stays core.ErrWeightRange (mcmd's weight_range) rather than being
// reported as int64 overflow.
type innerRangeError struct{ err error }

func (e innerRangeError) Error() string   { return e.err.Error() }
func (e innerRangeError) Unwrap() []error { return []error{ErrNumericRange, e.err} }
