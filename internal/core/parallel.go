package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/counter"
	"repro/internal/graph"
	"repro/internal/prep"
)

// minimumCycleMeanParallel is the concurrent SCC driver behind
// MinimumCycleMean when Options.Parallelism asks for more than one worker.
// Components are distributed to a bounded pool via an atomic work index;
// every outcome is stored at its component's slot and the merge runs
// sequentially in decomposition order afterwards, so the returned mean,
// cycle, and error do not depend on goroutine scheduling. Operation counts
// are aggregated into one private counter.Counts per worker (no shared
// mutable state between goroutines) and folded once after the join; integer
// addition commutes, so the totals equal the sequential driver's.
func minimumCycleMeanParallel(algo Algorithm, opt Options, comps []graph.Component, workers int) (Result, error) {
	if workers > len(comps) {
		workers = len(comps)
	}
	type compOut struct {
		res Result
		err error
	}
	outs := make([]compOut, len(comps))
	partial := make([]counter.Counts, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var scratch prep.Scratch // this worker's kernelization arrays
			for {
				i := int(next.Add(1)) - 1
				if i >= len(comps) {
					return
				}
				var (
					r   Result
					err error
				)
				// A panic inside a worker goroutine would kill the whole
				// process regardless of any recover in the caller, so the
				// numeric boundary must live here: capture the overflow as
				// this component's error and keep draining the queue.
				func() {
					defer RecoverNumericRange(&err, ErrNumericRange)
					// Tag solver events with the component index; tracer
					// hooks see concurrent emissions from the pool, which
					// the obs contract requires them to tolerate.
					sub := opt
					sub.traceComponent = i + 1
					if opt.Kernelize {
						// Kernelize per component. No cross-SCC pruning here:
						// the incumbent would depend on completion order and
						// the driver's merge must stay deterministic.
						kern := scratch.KernelizeTraced(comps[i].Graph, prep.Mean, opt.Tracer, i)
						r, err = solveComponentKernelized(algo, sub, comps[i].Graph, kern)
					} else {
						r, err = algo.Solve(comps[i].Graph, sub)
					}
				}()
				if err != nil {
					outs[i] = compOut{err: err}
					continue
				}
				partial[w].Add(r.Counts)
				r.Counts = counter.Counts{}
				// With several components, potentials never index the
				// driver's graph (see keepPotentials).
				r.potentials = nil
				cycle := make([]graph.ArcID, len(r.Cycle))
				for j, id := range r.Cycle {
					cycle[j] = comps[i].ArcMap[id]
				}
				r.Cycle = cycle
				outs[i] = compOut{res: r}
			}
		}(w)
	}
	wg.Wait()

	var total counter.Counts
	for w := range partial {
		total.Add(partial[w])
	}
	var (
		best     Result
		found    bool
		minLower float64
		anyBound bool
	)
	for i := range outs {
		if err := outs[i].err; err != nil {
			// Same error the sequential driver would report: the failure of
			// the earliest component in decomposition order.
			return Result{}, fmt.Errorf("core: %s on component of %d nodes: %w", algo.Name(), comps[i].Graph.NumNodes(), err)
		}
		// Same interval widening as the sequential driver: the global λ*
		// can lie below the winner when another component's certified lower
		// bound is smaller.
		lower := outs[i].res.Mean.Float64() - outs[i].res.ErrorBound
		if outs[i].res.ErrorBound > 0 {
			anyBound = true
		}
		if !found || lower < minLower {
			minLower = lower
		}
		if !found || outs[i].res.Mean.Less(best.Mean) {
			best = outs[i].res
			found = true
		}
	}
	best.Counts = total
	mergeErrorBound(&best, minLower, anyBound)
	return best, nil
}
