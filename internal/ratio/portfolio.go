package ratio

// The ratio-side portfolio: a roster of exact ratio solvers raced by core's
// one race loop (core.Race), with this package's input check and error
// names. Spelled "portfolio" or "portfolio:a+b" through ByName, like core's
// — and like core's it stays out of Names(), so corpus sweeps and bench
// tables that iterate the registry race real solvers, not the racer itself.

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/graph"
)

// ratioPortfolioName is the ByName spelling of the meta-algorithm.
const ratioPortfolioName = "portfolio"

// defaultRatioRoster is the race run by ByName("portfolio"): Howard (the
// practical winner), Stern–Brocot (integer-only mediant search, immune to
// float bias churn), Dinkelbach (superlinear on inputs with few distinct
// cycle ratios), and BHK (probe count logarithmic in n·|w|·maxT via the
// denominator-bound bisection). The four have disjoint worst cases.
var defaultRatioRoster = []string{"howard", "sternbrocot", "dinkelbach", "bhk"}

// RatioPortfolio races several ratio solvers on the same strongly connected
// graph; every exact solver returns the same ρ*, so racing changes only the
// wall clock paid, never the answer.
type RatioPortfolio struct {
	algos  []Algorithm
	racers []core.Algorithm // algos, as core.Race runs them
}

// NewPortfolio builds a ratio portfolio over the given solvers; with no
// arguments it uses the default howard+sternbrocot+dinkelbach+bhk roster.
func NewPortfolio(algos ...Algorithm) *RatioPortfolio {
	if len(algos) == 0 {
		for _, name := range defaultRatioRoster {
			algo, err := ByName(name)
			if err != nil {
				panic("ratio: default portfolio roster member missing: " + name)
			}
			algos = append(algos, algo)
		}
	}
	racers := make([]core.Algorithm, len(algos))
	for i, a := range algos {
		racers[i] = engine{a}
	}
	return &RatioPortfolio{algos: algos, racers: racers}
}

// portfolioByName parses "portfolio" or "portfolio:a+b+c" (members separated
// by '+' or ',') into a RatioPortfolio over registered solvers.
func portfolioByName(name string) (Algorithm, error) {
	if name == ratioPortfolioName {
		return NewPortfolio(), nil
	}
	spec := strings.TrimPrefix(name, ratioPortfolioName+":")
	members := strings.FieldsFunc(spec, func(r rune) bool { return r == '+' || r == ',' })
	if len(members) == 0 {
		return nil, fmt.Errorf("ratio: empty portfolio roster in %q", name)
	}
	var algos []Algorithm
	for _, m := range members {
		algo, err := ByName(m)
		if err != nil {
			return nil, fmt.Errorf("ratio: unknown portfolio member %q (known: %v)", m, Names())
		}
		algos = append(algos, algo)
	}
	return NewPortfolio(algos...), nil
}

// Name implements Algorithm.
func (p *RatioPortfolio) Name() string { return ratioPortfolioName }

// Algorithms returns the roster, in race order.
func (p *RatioPortfolio) Algorithms() []Algorithm { return p.algos }

// Solve implements Algorithm by racing the roster; see SolveContext.
func (p *RatioPortfolio) Solve(g *graph.Graph, opt core.Options) (Result, error) {
	return p.SolveContext(context.Background(), g, opt)
}

// SolveContext races every roster member on g and returns the first exact
// result, canceling the rest; all racer goroutines are joined before it
// returns. The returned Counts are the winner's alone.
func (p *RatioPortfolio) SolveContext(ctx context.Context, g *graph.Graph, opt core.Options) (Result, error) {
	if err := checkInput(g); err != nil {
		return Result{}, err
	}
	r, err := core.Race(ctx, g, p.racers, opt, sentinels)
	return fromCore(r), err
}
