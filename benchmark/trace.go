package main

import (
	"cmp"
	"slices"
	"sync"
	"time"

	"repro/internal/obs"
)

// Span names. rootSpan is one operation the benchmark timed end to end; the
// others are the layers inside it.
const (
	rootSpan     = "op"
	decodeSpan   = "graph.decode"
	solverSpan   = "core.solver"
	certifySpan  = "core.certify"
	probeSpan    = "ratio.probe"
	handlerSpan  = "serve.handler"
	unattributed = -1 // op id of work the server did for no request we can name
)

// span is one timed interval. Spans stay in memory for the whole traced
// window and are reduced to per-layer metrics when it ends.
type span struct {
	name string
	// op identifies the operation the span belongs to; unattributed for
	// events the server emitted while several requests were in flight.
	op int
	// parent is the index of the enclosing span in recorder.spans, or -1
	// when the enclosing span is the operation's root.
	parent     int
	start, end time.Duration // since recorder.epoch
}

// recorder collects spans and counts. Its obs.Trace turns the Duration the
// library's events already carry into child spans: OnSolverDone,
// OnCertify and OnProbe. SCC and kernel events carry no duration, so they
// only add counts. Hooks may run concurrently (the parallel SCC driver, the
// server's workers), so every method takes the lock.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	// op is the library operation in progress (unattributed outside one);
	// library workloads run one operation at a time.
	op int
	// solvers maps a component index to its open solver span, and
	// lastSolver is the span probes nest in.
	solvers    map[int]int
	lastSolver int
	// arcs is the arc count of the latest solver run: every probe pass
	// relaxes each arc once.
	arcs int

	n traceCounts
}

// traceCounts are the counts recorded at the same boundaries as the spans.
type traceCounts struct {
	probes, negativeProbes, passes, probeRelaxations   int64
	iterations, relaxations                            int64
	sccSolves, components                              int64
	kernels, kernelsSolved, kernelOrigArcs, kernelArcs int64
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), op: unattributed, solvers: map[int]int{}, lastSolver: -1}
}

func (r *recorder) since(t time.Time) time.Duration { return t.Sub(r.epoch) }

// reset drops everything recorded so far, such as a warm-up's spans.
func (r *recorder) reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans, r.n = nil, traceCounts{}
}

// add records a finished span that is an operation's root or one of its
// direct children.
func (r *recorder) add(name string, op int, start, end time.Time) {
	r.mu.Lock()
	r.spans = append(r.spans, span{name, op, -1, r.since(start), r.since(end)})
	r.mu.Unlock()
}

// beginOp starts library operation op; the obs hooks attribute their spans
// to it until endOp.
func (r *recorder) beginOp(op int) {
	r.mu.Lock()
	r.op = op
	r.mu.Unlock()
}

// endOp records the operation's root span and detaches the hooks from it.
func (r *recorder) endOp(start, end time.Time) {
	r.mu.Lock()
	r.spans = append(r.spans, span{rootSpan, r.op, -1, r.since(start), r.since(end)})
	r.op = unattributed
	r.lastSolver = -1
	r.mu.Unlock()
}

// eventSpanLocked records a span that ended now and lasted d.
func (r *recorder) eventSpanLocked(name string, parent int, d time.Duration) {
	end := time.Since(r.epoch)
	r.spans = append(r.spans, span{name, r.op, parent, end - d, end})
}

// trace returns the hooks that feed this recorder.
func (r *recorder) trace() *obs.Trace {
	return &obs.Trace{
		OnSolverStart: func(ev obs.SolverStartEvent) {
			r.mu.Lock()
			defer r.mu.Unlock()
			r.arcs = ev.Arcs
			if r.op == unattributed {
				return // concurrent server solves: recorded whole at OnSolverDone
			}
			r.spans = append(r.spans, span{solverSpan, r.op, -1, time.Since(r.epoch), 0})
			r.solvers[ev.Component] = len(r.spans) - 1
			r.lastSolver = len(r.spans) - 1
		},
		OnSolverDone: func(ev obs.SolverDoneEvent) {
			r.mu.Lock()
			defer r.mu.Unlock()
			r.n.iterations += int64(ev.Counts.Iterations)
			r.n.relaxations += int64(ev.Counts.Relaxations)
			i, open := r.solvers[ev.Component]
			if r.op == unattributed || !open {
				r.eventSpanLocked(solverSpan, -1, ev.Duration)
				return
			}
			delete(r.solvers, ev.Component)
			end := time.Since(r.epoch)
			r.spans[i].start, r.spans[i].end = end-ev.Duration, end
		},
		OnProbe: func(ev obs.ProbeEvent) {
			r.mu.Lock()
			defer r.mu.Unlock()
			r.n.probes++
			r.n.passes += int64(ev.Passes)
			r.n.probeRelaxations += int64(ev.Passes) * int64(r.arcs)
			if ev.Negative {
				r.n.negativeProbes++
			}
			r.eventSpanLocked(probeSpan, r.lastSolver, ev.Duration)
		},
		OnCertify: func(ev obs.CertifyEvent) {
			r.mu.Lock()
			defer r.mu.Unlock()
			r.eventSpanLocked(certifySpan, -1, ev.Duration)
		},
		OnSCC: func(ev obs.SCCEvent) {
			r.mu.Lock()
			defer r.mu.Unlock()
			r.n.sccSolves++
			r.n.components += int64(ev.Components)
		},
		OnKernel: func(ev obs.KernelEvent) {
			r.mu.Lock()
			defer r.mu.Unlock()
			r.n.kernels++
			r.n.kernelOrigArcs += int64(ev.OrigArcs)
			r.n.kernelArcs += int64(ev.Arcs)
			if ev.Solved {
				r.n.kernelsSolved++
			}
		},
	}
}

// layerTimes is the reduction of a window's spans.
type layerTimes struct {
	ops int
	// opTime sums the root spans; self sums each root minus the part of it
	// its direct children cover.
	opTime, self time.Duration
	// layer sums, per span name, each operation's union of that layer's
	// spans (so overlapping parallel solves count once), plus every
	// unattributed span of that name.
	layer map[string]time.Duration
	// durations lists each span's length per name, for percentiles.
	durations map[string][]time.Duration
}

// reduce folds the recorded spans into per-layer totals.
func (r *recorder) reduce() layerTimes {
	r.mu.Lock()
	defer r.mu.Unlock()
	lt := layerTimes{layer: map[string]time.Duration{}, durations: map[string][]time.Duration{}}
	byOp := map[int][]span{}
	for _, s := range r.spans {
		lt.durations[s.name] = append(lt.durations[s.name], s.end-s.start)
		if s.op == unattributed {
			lt.layer[s.name] += s.end - s.start
			continue
		}
		byOp[s.op] = append(byOp[s.op], s)
	}
	for _, spans := range byOp {
		var root *span
		var direct []span
		byName := map[string][]span{}
		for i := range spans {
			s := &spans[i]
			switch {
			case s.name == rootSpan:
				root = s
			case s.parent < 0:
				direct = append(direct, *s)
				fallthrough
			default:
				byName[s.name] = append(byName[s.name], *s)
			}
		}
		if root == nil {
			continue // an operation cut off by the end of the window
		}
		d := root.end - root.start
		lt.ops++
		lt.opTime += d
		lt.self += d - unionLen(direct)
		for name, ss := range byName {
			lt.layer[name] += unionLen(ss)
		}
	}
	return lt
}

// metrics turns the window's spans and counts into the per-layer metrics
// every workload shares. Times are per operation; shares are of the summed
// operation time. core.driver_self_ms is the part of an operation no layer
// span covers; a workload whose operations are HTTP requests overrides it.
func (r *recorder) metrics() map[string]float64 {
	lt := r.reduce()
	r.mu.Lock()
	defer r.mu.Unlock()
	ops := float64(lt.ops)
	perOp := func(d time.Duration) float64 { return frac(float64(d)/1e6, ops) }
	share := func(d time.Duration) float64 { return frac(float64(d), float64(lt.opTime)) }
	probes := float64(r.n.probes)
	m := map[string]float64{
		"graph.decode_ms":             perOp(lt.layer[decodeSpan]),
		"graph.decode_share":          share(lt.layer[decodeSpan]),
		"graph.cyclic_components":     frac(float64(r.n.components), float64(r.n.sccSolves)),
		"core.solver_ms":              perOp(lt.layer[solverSpan]),
		"core.solver_share":           share(lt.layer[solverSpan]),
		"core.iterations":             frac(float64(r.n.iterations), ops),
		"core.relaxations":            frac(float64(r.n.relaxations), ops),
		"core.certify_ms":             perOp(lt.layer[certifySpan]),
		"core.certify_share":          share(lt.layer[certifySpan]),
		"core.driver_self_ms":         perOp(lt.self),
		"ratio.probes_per_op":         frac(probes, ops),
		"ratio.passes_per_probe":      frac(float64(r.n.passes), probes),
		"ratio.relaxations_per_probe": frac(float64(r.n.probeRelaxations), probes),
		"ratio.probe_ms":              perOp(lt.layer[probeSpan]),
		"ratio.probe_share":           share(lt.layer[probeSpan]),
		"ratio.ns_per_relaxation":     frac(float64(lt.layer[probeSpan]), float64(r.n.probeRelaxations)),
		"ratio.negative_probe_share":  frac(float64(r.n.negativeProbes), probes),
		"prep.solved_share":           frac(float64(r.n.kernelsSolved), float64(r.n.kernels)),
		"prep.arc_reduction":          0,
	}
	if r.n.kernelOrigArcs > 0 {
		m["prep.arc_reduction"] = 1 - float64(r.n.kernelArcs)/float64(r.n.kernelOrigArcs)
	}
	if hs := lt.durations[handlerSpan]; len(hs) > 0 {
		ms := make([]float64, len(hs))
		for i, d := range hs {
			ms[i] = float64(d) / 1e6
		}
		m["serve.handler_p50_ms"] = median(ms)
		m["serve.handler_p99_ms"], _ = percentile(ms, 0.99)
		m["serve.client_ms"] = perOp(lt.self)
		// The server's solves cannot be matched to requests, so its own time
		// is the handler's minus the solver and certify spans it emitted.
		var handler time.Duration
		for _, d := range hs {
			handler += d
		}
		m["core.driver_self_ms"] = perOp(handler - lt.layer[solverSpan] - lt.layer[certifySpan])
	}
	return m
}

// unionLen is the total length covered by the spans' intervals.
func unionLen(spans []span) time.Duration {
	s := slices.Clone(spans)
	slices.SortFunc(s, func(a, b span) int { return cmp.Compare(a.start, b.start) })
	var total time.Duration
	var curStart, curEnd time.Duration
	for i, sp := range s {
		if i == 0 || sp.start > curEnd {
			total += curEnd - curStart
			curStart, curEnd = sp.start, sp.end
			continue
		}
		curEnd = max(curEnd, sp.end)
	}
	if len(s) > 0 {
		total += curEnd - curStart
	}
	return total
}
