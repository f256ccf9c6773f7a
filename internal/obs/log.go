package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// NewLogTracer returns a Trace that renders every event as one human-readable
// line on w, prefixed with the elapsed time since the tracer was created
// (cmd/mcm -trace wires it to stderr). Writes are serialized with a mutex so
// events from the parallel driver and portfolio racers interleave whole
// lines, never bytes.
func NewLogTracer(w io.Writer) *Trace {
	l := &logTracer{w: w, start: time.Now()}
	return &Trace{
		OnSCC:         l.scc,
		OnKernel:      l.kernel,
		OnSolverStart: l.solverStart,
		OnSolverDone:  l.solverDone,
		OnRace:        l.race,
		OnCache:       l.cache,
		OnServeCache:  l.serveCache,
		OnApprox:      l.approx,
		OnProbe:       l.probe,
		OnCertify:     l.certify,
		OnDelta:       l.delta,
	}
}

type logTracer struct {
	mu    sync.Mutex
	w     io.Writer
	start time.Time
}

func (l *logTracer) printf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	fmt.Fprintf(l.w, "[%10s] %s\n", time.Since(l.start).Round(time.Microsecond), fmt.Sprintf(format, args...))
}

// component renders a component index, tolerating the -1 "direct call" mark.
func component(idx int) string {
	if idx < 0 {
		return "-"
	}
	return fmt.Sprintf("%d", idx)
}

func (l *logTracer) scc(ev SCCEvent) {
	sizes := make([]string, 0, len(ev.Sizes))
	for _, s := range ev.Sizes {
		sizes = append(sizes, fmt.Sprintf("%d", s))
	}
	l.printf("scc: %d cyclic components (n=%d m=%d, sizes %s) in %v",
		ev.Components, ev.Nodes, ev.Arcs, strings.Join(sizes, ","), ev.Duration.Round(time.Microsecond))
}

func (l *logTracer) kernel(ev KernelEvent) {
	d := ev.Duration.Round(time.Microsecond)
	switch {
	case ev.Unsupported:
		l.printf("kernel: comp %d unsupported input, solving raw (n=%d m=%d) in %v",
			ev.Component, ev.OrigNodes, ev.OrigArcs, d)
	case ev.Solved:
		l.printf("kernel: comp %d solved in closed form (n=%d m=%d reduced away) in %v",
			ev.Component, ev.OrigNodes, ev.OrigArcs, d)
	default:
		l.printf("kernel: comp %d n=%d->%d m=%d->%d contracted=%v candidate=%v bounds=%v in %v",
			ev.Component, ev.OrigNodes, ev.Nodes, ev.OrigArcs, ev.Arcs,
			ev.Contracted, ev.HasCandidate, ev.HasBounds, d)
	}
}

func (l *logTracer) solverStart(ev SolverStartEvent) {
	warm := ""
	if ev.WarmStart {
		warm = " warm-start"
	}
	l.printf("solver %s: comp %s start (n=%d m=%d)%s",
		ev.Algorithm, component(ev.Component), ev.Nodes, ev.Arcs, warm)
}

func (l *logTracer) solverDone(ev SolverDoneEvent) {
	if ev.Err != nil {
		l.printf("solver %s: comp %s FAILED after %v: %v",
			ev.Algorithm, component(ev.Component), ev.Duration.Round(time.Microsecond), ev.Err)
		return
	}
	l.printf("solver %s: comp %s done in %v, value=%g, %s",
		ev.Algorithm, component(ev.Component), ev.Duration.Round(time.Microsecond), ev.Value, ev.Counts)
}

func (l *logTracer) race(ev RaceEvent) {
	var b strings.Builder
	for i, r := range ev.Racers {
		if i > 0 {
			b.WriteString(", ")
		}
		switch {
		case r.Won:
			fmt.Fprintf(&b, "%s won in %v", r.Algorithm, r.Elapsed.Round(time.Microsecond))
		case r.Err != nil:
			fmt.Fprintf(&b, "%s lost (cancel latency %v)", r.Algorithm, r.CancelLatency.Round(time.Microsecond))
		default:
			fmt.Fprintf(&b, "%s finished in %v", r.Algorithm, r.Elapsed.Round(time.Microsecond))
		}
	}
	winner := ev.Winner
	if winner == "" {
		winner = "(none)"
	}
	l.printf("race: winner=%s in %v [%s]", winner, ev.Duration.Round(time.Microsecond), b.String())
}

func (l *logTracer) cache(ev CacheEvent) {
	l.printf("cache: %s (%d entries)", ev.Op, ev.Entries)
}

func (l *logTracer) serveCache(ev ServeCacheEvent) {
	l.printf("result-cache: %s (%d entries)", ev.Op, ev.Entries)
}

func (l *logTracer) approx(ev ApproxEvent) {
	if ev.Err != nil {
		l.printf("approx %s: eps=%g (n=%d m=%d) FAILED after %d passes/%d rounds at [%g, %g]: %v",
			ev.Mode, ev.Epsilon, ev.Nodes, ev.Arcs, ev.Passes, ev.Rounds, ev.Lower, ev.Upper, ev.Err)
		return
	}
	sharpened := ""
	if ev.Sharpened {
		sharpened = ", sharpened exact"
	}
	l.printf("approx %s: eps=%g (n=%d m=%d) certified [%g, %g] in %d passes/%d rounds%s",
		ev.Mode, ev.Epsilon, ev.Nodes, ev.Arcs, ev.Lower, ev.Upper, ev.Passes, ev.Rounds, sharpened)
}

func (l *logTracer) delta(ev DeltaEvent) {
	extra := ""
	if ev.Merged > 1 {
		extra = fmt.Sprintf(" merged=%d", ev.Merged)
	}
	if ev.Split > 1 {
		extra += fmt.Sprintf(" split=%d", ev.Split)
	}
	l.printf("delta: %s arc=%d (%d->%d) invalidated=%d%s, %d live components",
		ev.Op, ev.Arc, ev.From, ev.To, ev.Invalidated, extra, ev.Components)
}

func (l *logTracer) probe(ev ProbeEvent) {
	verdict := "feasible"
	if ev.Negative {
		verdict = "negative cycle"
	}
	l.printf("probe: λ=%d/%d %s (%d passes, %v)",
		ev.Num, ev.Den, verdict, ev.Passes, ev.Duration.Round(time.Microsecond))
}

func (l *logTracer) certify(ev CertifyEvent) {
	if ev.OK {
		snapped := ""
		if ev.Snapped {
			snapped = ", snapped from float"
		}
		l.printf("certify: pass in %v, value=%g den<=%d%s",
			ev.Duration.Round(time.Microsecond), ev.Value, ev.MaxDen, snapped)
		return
	}
	l.printf("certify: FAIL after %v: %v", ev.Duration.Round(time.Microsecond), ev.Err)
}
