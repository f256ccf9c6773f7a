package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
)

// portfolioName is the ByName spelling of the meta-algorithm.
const portfolioName = "portfolio"

// defaultPortfolioRoster is the race run by ByName("portfolio"): Howard (the
// paper's practical winner), Karp (worst-case O(nm), immune to Howard's
// pathological inputs), YTO (the best parametric bound), and Madani
// (contraction-accelerated value iteration, integer-exact throughout). The
// members have disjoint worst cases, which is the point of racing them.
var defaultPortfolioRoster = []string{"howard", "karp", "yto", "madani"}

// portfolioLive counts currently-running racer goroutines; it is a test
// hook proving that races never leak goroutines (Race joins every racer
// before returning, so the counter always returns to zero).
var portfolioLive atomic.Int64

// LiveRacers returns the number of racer goroutines Race is running right
// now, for every caller of Race. It is zero whenever no race is in flight;
// the portfolio stress tests of this package and internal/ratio read it as
// their goroutine-leak ledger.
func LiveRacers() int64 { return portfolioLive.Load() }

// Portfolio is a meta-algorithm that runs several exact solvers
// concurrently on the same strongly connected graph and returns the first
// exact result, canceling the losers promptly (each built-in solver polls a
// cancellation flag once per main-loop iteration). Since every exact solver
// returns the same λ*, racing never changes the answer — only which
// algorithm's wall-clock the caller pays, which is min over the roster.
// This is the algorithmic analogue of the paper's observation that no
// single algorithm dominates on every input family.
type Portfolio struct {
	algos []Algorithm
}

// NewPortfolio builds a portfolio over the given solvers; with no arguments
// it uses the default howard+karp+yto+madani roster. The solvers must be safe for
// concurrent use with distinct Options values (all built-ins are).
func NewPortfolio(algos ...Algorithm) *Portfolio {
	if len(algos) == 0 {
		for _, name := range defaultPortfolioRoster {
			algo, err := ByName(name)
			if err != nil {
				panic("core: default portfolio roster member missing: " + name)
			}
			algos = append(algos, algo)
		}
	}
	return &Portfolio{algos: algos}
}

// portfolioByName parses "portfolio" or "portfolio:a+b+c" (members may be
// separated by '+' or ',') into a Portfolio over registered solvers.
func portfolioByName(name string) (Algorithm, error) {
	if name == portfolioName {
		return NewPortfolio(), nil
	}
	spec := strings.TrimPrefix(name, portfolioName+":")
	members := strings.FieldsFunc(spec, func(r rune) bool { return r == '+' || r == ',' })
	if len(members) == 0 {
		return nil, fmt.Errorf("core: empty portfolio roster in %q", name)
	}
	var algos []Algorithm
	for _, m := range members {
		ctor, ok := registry[m]
		if !ok {
			return nil, fmt.Errorf("core: unknown portfolio member %q (known: %v)", m, Names())
		}
		algos = append(algos, ctor())
	}
	return NewPortfolio(algos...), nil
}

// Name implements Algorithm.
func (p *Portfolio) Name() string { return portfolioName }

// Algorithms returns the roster, in race order.
func (p *Portfolio) Algorithms() []Algorithm { return p.algos }

// Solve implements Algorithm by racing the roster; see SolveContext.
func (p *Portfolio) Solve(g *graph.Graph, opt Options) (Result, error) {
	return p.SolveContext(context.Background(), g, opt)
}

// SolveContext races every roster member on g and returns the first exact
// result, canceling the rest through ctx-derived cancellation flags. The
// returned Counts are the winner's alone — the losers' partial work is
// canceled and discarded, so counts are not comparable across runs the way
// a single algorithm's are.
//
// All racer goroutines are joined before SolveContext returns: a canceled
// loser unwinds at its next checkpoint (once per main-loop iteration), so
// the join is prompt and no goroutine outlives the call.
func (p *Portfolio) SolveContext(ctx context.Context, g *graph.Graph, opt Options) (Result, error) {
	if err := checkSolveInput(g); err != nil {
		return Result{}, err
	}
	return Race(ctx, g, p.algos, opt, meanForm.Sentinels)
}

// Race is the one portfolio race loop, behind Portfolio and internal/ratio's
// portfolio: it runs every algorithm of algos concurrently on the validated
// graph g and returns the first exact result, canceling the rest through
// flags chained to opt's own cancellation and bridged from ctx. When no
// racer is exact, the first inexact result is returned; when all fail,
// their errors are joined, each wrapped with the member's name under
// s.Prefix. A racer's numeric overflow panic becomes s.NumericRange. Every
// racer goroutine is joined before Race returns.
func Race(ctx context.Context, g *graph.Graph, algos []Algorithm, opt Options, s Sentinels) (Result, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type outcome struct {
		idx int
		res Result
		err error
	}
	results := make(chan outcome, len(algos))
	flags := make([]*cancelFlag, len(algos))
	var wg sync.WaitGroup
	for i, a := range algos {
		// Each racer gets its own flag chained to the caller's, so both a
		// lost race and an outer cancellation stop it.
		sub := opt
		sub.cancel = &cancelFlag{parent: opt.cancel}
		flags[i] = sub.cancel
		wg.Add(1)
		portfolioLive.Add(1)
		go func(i int, a Algorithm, sub Options) {
			defer wg.Done()
			defer portfolioLive.Add(-1)
			var (
				res Result
				err error
			)
			// Racer goroutines need their own numeric boundary: registry
			// members are individually guarded, but a caller-supplied
			// Algorithm is not, and a panic here would kill the process.
			func() {
				defer RecoverNumericRange(&err, s.NumericRange)
				res, err = a.Solve(g, sub)
			}()
			results <- outcome{idx: i, res: res, err: err}
		}(i, a, sub)
	}
	// Bridge context cancellation onto the racer flags.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-ctx.Done()
		for _, f := range flags {
			f.set()
		}
	}()

	// Race bookkeeping for the tracer: per-racer wall clock and, for racers
	// that unwound after the race was decided, the cancellation latency.
	// Gathered only when tracing is on so the fast path stays time.Now-free.
	tracing := opt.Tracer.Enabled()
	var (
		raceStart time.Time
		decidedAt time.Time
		finish    []time.Duration
		latency   []time.Duration
	)
	if tracing {
		raceStart = time.Now()
		finish = make([]time.Duration, len(algos))
		latency = make([]time.Duration, len(algos))
	}

	var (
		winner  *outcome
		inexact *outcome
		errs    = make([]error, len(algos))
	)
	for remaining := len(algos); remaining > 0; remaining-- {
		o := <-results
		if tracing {
			now := time.Now()
			finish[o.idx] = now.Sub(raceStart)
			if !decidedAt.IsZero() {
				latency[o.idx] = now.Sub(decidedAt)
			}
		}
		switch {
		case o.err != nil:
			errs[o.idx] = o.err
		case o.res.Exact && winner == nil:
			o := o
			winner = &o
			if tracing {
				decidedAt = time.Now()
			}
			cancel() // first exact answer wins; stop the losers
		case !o.res.Exact && inexact == nil:
			o := o
			inexact = &o
		}
	}
	cancel()
	wg.Wait()

	if tracing {
		returned := winner
		if returned == nil {
			returned = inexact
		}
		ev := obs.RaceEvent{Duration: time.Since(raceStart), Racers: make([]obs.RacerOutcome, len(algos))}
		for i, a := range algos {
			ev.Racers[i] = obs.RacerOutcome{
				Algorithm:     a.Name(),
				Elapsed:       finish[i],
				CancelLatency: latency[i],
				Won:           returned != nil && returned.idx == i,
				Err:           errs[i],
			}
		}
		if returned != nil {
			ev.Winner = algos[returned.idx].Name()
		}
		opt.Tracer.Race(ev)
	}

	if winner != nil {
		return winner.res, nil
	}
	if inexact != nil {
		// Epsilon-mode roster: no exact result exists; hand back an
		// approximate one rather than failing.
		return inexact.res, nil
	}
	if err := ctx.Err(); err != nil && opt.cancel.canceled() {
		return Result{}, ErrCanceled
	}
	// Every racer failed: report them all. Each member error is wrapped with
	// the member's name and the joined error preserves errors.Is/As on every
	// one of them, so distinct failures are no longer masked by the
	// lowest-index racer's.
	var fails []error
	for i, err := range errs {
		if err != nil && !errors.Is(err, ErrCanceled) {
			fails = append(fails, fmt.Errorf("%s: portfolio member %s: %w", s.Prefix, algos[i].Name(), err))
		}
	}
	if len(fails) > 0 {
		return Result{}, errors.Join(fails...)
	}
	return Result{}, ErrCanceled
}
