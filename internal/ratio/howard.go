package ratio

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
)

func init() {
	register("howard", func() Algorithm { return howardRatio{} })
}

// howardRatio is Howard's policy-iteration algorithm in its original
// cost-to-time ratio form [Cochet-Terrasson et al. 1997]. It runs core's one
// Howard through core.HowardRatio: the iteration the mean solver runs, with
// each arc's transit in place of 1 — multichain value determination with
// exact rational gains, lexicographic improvement, and an exact proof of
// the fixed point (docs/ALGORITHMS.md, "howard"). This adapter validates the
// input and translates the result and core's error sentinels.
type howardRatio struct{}

func (howardRatio) Name() string { return "howard" }

func (howardRatio) Solve(g *graph.Graph, opt core.Options) (Result, error) {
	if err := checkInput(g); err != nil {
		return Result{}, err
	}
	r, err := core.HowardRatio(g, opt)
	switch {
	case err == nil:
		return fromCore(r), nil
	case errors.Is(err, core.ErrNumericRange):
		return Result{}, fmt.Errorf("%w (%v)", ErrNumericRange, err)
	case errors.Is(err, core.ErrIterationLimit):
		return Result{}, ErrIterationLimit
	}
	return Result{}, err // core.ErrCanceled passes through
}
