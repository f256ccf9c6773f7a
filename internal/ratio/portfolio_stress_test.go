package ratio

// Cancellation-race stress for the portfolio: the losing racers must
// observe the shared cancellation promptly (their only legitimate non-nil
// error is core.ErrCanceled, surfaced at a probe checkpoint), every racer
// goroutine must be joined before SolveContext returns (core.LiveRacers,
// the count of core.Race's racer goroutines, is the goleak-style ledger),
// and none of it may ever change the answer.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
)

// stressGraph is big enough that the slower roster members are still
// mid-solve when the winner finishes, so cancellation actually races probe
// checkpoints instead of arriving after the fact.
func stressGraph(t *testing.T, seed uint64) *graph.Graph {
	t.Helper()
	g, err := gen.Sprand(gen.SprandConfig{N: 120, M: 600, MinWeight: -900, MaxWeight: 900, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return withTransits(g, 6)
}

func TestPortfolioCancellationStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	howard, err := ByName("howard")
	if err != nil {
		t.Fatal(err)
	}
	pf := NewPortfolio()

	const rounds = 40
	for round := 0; round < rounds; round++ {
		g := stressGraph(t, uint64(round%5))
		want, err := MinimumCycleRatio(g, howard, core.Options{})
		if err != nil {
			t.Fatal(err)
		}

		var (
			mu     sync.Mutex
			events []obs.RaceEvent
		)
		opt := core.Options{Tracer: &obs.Trace{OnRace: func(ev obs.RaceEvent) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		}}}
		res, err := pf.Solve(g, opt)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !res.Ratio.Equal(want.Ratio) {
			t.Fatalf("round %d: portfolio ρ* = %v, howard = %v", round, res.Ratio, want.Ratio)
		}
		if live := core.LiveRacers(); live != 0 {
			t.Fatalf("round %d: %d racer goroutines still live after Solve returned", round, live)
		}
		mu.Lock()
		if len(events) != 1 {
			t.Fatalf("round %d: %d race events, want 1", round, len(events))
		}
		ev := events[0]
		mu.Unlock()
		if ev.Winner == "" {
			t.Fatalf("round %d: race event has no winner: %+v", round, ev)
		}
		for _, r := range ev.Racers {
			// A loser either finished with the same exact answer (err nil)
			// or was stopped at a cancellation checkpoint — anything else
			// means a racer turned a lost race into a real failure.
			if r.Err != nil && !errors.Is(r.Err, core.ErrCanceled) {
				t.Fatalf("round %d: racer %s failed with %v, want nil or ErrCanceled", round, r.Algorithm, r.Err)
			}
		}
	}
}

// TestPortfolioExternalCancelStress fires the caller's own cancellation at
// random points of the race: the portfolio must return either a completed
// exact answer or core.ErrCanceled — never a partial result — and must
// always join its goroutines.
func TestPortfolioExternalCancelStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	howard, err := ByName("howard")
	if err != nil {
		t.Fatal(err)
	}
	pf := NewPortfolio()
	g := stressGraph(t, 1)
	want, err := MinimumCycleRatio(g, howard, core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	for _, delay := range []time.Duration{0, 20 * time.Microsecond, 100 * time.Microsecond, 500 * time.Microsecond, 2 * time.Millisecond} {
		for round := 0; round < 8; round++ {
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(delay)
				cancel()
			}()
			res, err := pf.SolveContext(ctx, g, core.Options{})
			cancel()
			if err != nil {
				if !errors.Is(err, core.ErrCanceled) {
					t.Fatalf("delay %v round %d: err = %v, want ErrCanceled", delay, round, err)
				}
			} else if !res.Ratio.Equal(want.Ratio) {
				t.Fatalf("delay %v round %d: canceled race returned wrong ρ* %v, want %v", delay, round, res.Ratio, want.Ratio)
			}
			if live := core.LiveRacers(); live != 0 {
				t.Fatalf("delay %v round %d: %d racer goroutines still live", delay, round, live)
			}
		}
	}
}

// TestPortfolioConcurrentSolves runs many races in parallel on the same
// portfolio value: the roster and its workspaces must be share-nothing
// across races (run under -race in CI).
func TestPortfolioConcurrentSolves(t *testing.T) {
	howard, err := ByName("howard")
	if err != nil {
		t.Fatal(err)
	}
	pf := NewPortfolio()
	g := stressGraph(t, 3)
	want, err := MinimumCycleRatio(g, howard, core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				res, err := pf.Solve(g, core.Options{})
				if err != nil {
					errCh <- err
					return
				}
				if !res.Ratio.Equal(want.Ratio) {
					errCh <- errors.New("concurrent race answer drifted: " + res.Ratio.String())
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if live := core.LiveRacers(); live != 0 {
		t.Fatalf("%d racer goroutines still live after all solves returned", live)
	}
}
