package obs

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/counter"
)

// TestNilTraceZeroAllocs pins the disabled-tracer fast path at exactly zero
// allocations: emitting every event kind through a nil *Trace must not touch
// the heap. This is the contract that lets the solve drivers leave their
// emission calls unconditionally in place.
func TestNilTraceZeroAllocs(t *testing.T) {
	var tr *Trace
	sizes := []int{3, 5}
	avg := testing.AllocsPerRun(200, func() {
		tr.SCC(SCCEvent{Components: 2, Nodes: 8, Arcs: 16, Sizes: sizes})
		tr.Kernel(KernelEvent{Component: 0, OrigNodes: 8, OrigArcs: 16})
		tr.SolverStart(SolverStartEvent{Algorithm: "howard", Component: 0, Nodes: 3, Arcs: 6})
		tr.SolverDone(SolverDoneEvent{Algorithm: "howard", Component: 0, Duration: time.Millisecond})
		tr.Race(RaceEvent{Winner: "howard"})
		tr.Cache(CacheEvent{Op: CacheHit, Entries: 1})
		tr.Certify(CertifyEvent{OK: true, MaxDen: 8})
	})
	if avg != 0 {
		t.Errorf("nil tracer allocates %.1f objects per emission round, pinned at 0", avg)
	}
}

// A Trace with nil hooks must be as cheap as a nil Trace.
func TestEmptyTraceZeroAllocs(t *testing.T) {
	tr := &Trace{}
	avg := testing.AllocsPerRun(200, func() {
		tr.SCC(SCCEvent{})
		tr.SolverDone(SolverDoneEvent{})
		tr.Certify(CertifyEvent{})
	})
	if avg != 0 {
		t.Errorf("hook-less tracer allocates %.1f objects per round, pinned at 0", avg)
	}
}

func TestEnabled(t *testing.T) {
	var nilTrace *Trace
	if nilTrace.Enabled() {
		t.Error("nil trace reports Enabled")
	}
	if !(&Trace{}).Enabled() {
		t.Error("non-nil trace reports disabled")
	}
}

func TestMultiFansOut(t *testing.T) {
	var got []string
	mk := func(tag string) *Trace {
		return &Trace{
			OnSCC:        func(SCCEvent) { got = append(got, tag+":scc") },
			OnSolverDone: func(SolverDoneEvent) { got = append(got, tag+":done") },
		}
	}
	m := Multi(mk("a"), nil, mk("b"))
	m.SCC(SCCEvent{})
	m.SolverDone(SolverDoneEvent{})
	want := []string{"a:scc", "b:scc", "a:done", "b:done"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestMultiDegenerate(t *testing.T) {
	if Multi() != nil {
		t.Error("Multi() != nil")
	}
	if Multi(nil, nil) != nil {
		t.Error("Multi(nil, nil) != nil")
	}
	single := &Trace{}
	if Multi(nil, single) != single {
		t.Error("Multi with one live member should return it unchanged")
	}
}

func TestLogTracerRendersEvents(t *testing.T) {
	var sb strings.Builder
	mu := &syncWriter{w: &sb}
	tr := NewLogTracer(mu)
	tr.SCC(SCCEvent{Components: 2, Nodes: 7, Arcs: 12, Sizes: []int{4, 3}, Duration: 5 * time.Microsecond})
	tr.Kernel(KernelEvent{Component: 1, OrigNodes: 4, OrigArcs: 6, Nodes: 2, Arcs: 3, Contracted: true,
		Duration: 3 * time.Microsecond})
	tr.SolverStart(SolverStartEvent{Algorithm: "howard", Component: 1, Nodes: 2, Arcs: 3})
	tr.SolverDone(SolverDoneEvent{Algorithm: "howard", Component: 1, Duration: 42 * time.Microsecond,
		Value: 1.5, Counts: counter.Counts{Iterations: 3}})
	tr.SolverDone(SolverDoneEvent{Algorithm: "karp", Component: -1, Err: errors.New("boom")})
	tr.Race(RaceEvent{Winner: "howard", Duration: time.Millisecond, Racers: []RacerOutcome{
		{Algorithm: "howard", Won: true, Elapsed: time.Millisecond},
		{Algorithm: "karp", Err: errors.New("canceled"), CancelLatency: 10 * time.Microsecond},
	}})
	tr.Cache(CacheEvent{Op: CacheMiss, Entries: 1})
	tr.Certify(CertifyEvent{OK: true, Value: 1.5, MaxDen: 7, Snapped: true})
	tr.Certify(CertifyEvent{OK: false, Err: errors.New("bad proof")})

	out := sb.String()
	for _, want := range []string{
		"scc: 2 cyclic components (n=7 m=12, sizes 4,3) in 5µs",
		"kernel: comp 1 n=4->2 m=6->3 contracted=true",
		"bounds=false in 3µs",
		"solver howard: comp 1 start (n=2 m=3)",
		"solver howard: comp 1 done in 42µs, value=1.5, iters=3",
		"solver karp: comp - FAILED",
		"race: winner=howard",
		"howard won in 1ms",
		"karp lost (cancel latency 10µs)",
		"cache: miss (1 entries)",
		"certify: pass",
		"snapped from float",
		"certify: FAIL",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("log output missing %q:\n%s", want, out)
		}
	}
}

// syncWriter makes a strings.Builder safe for the tracer's concurrent use
// contract (not exercised concurrently here, but keeps vet happy elsewhere).
type syncWriter struct {
	mu sync.Mutex
	w  *strings.Builder
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

func TestCacheOpString(t *testing.T) {
	cases := map[CacheOp]string{CacheHit: "hit", CacheMiss: "miss", CacheEvict: "evict", CacheOp(99): "unknown"}
	for op, want := range cases {
		if got := op.String(); got != want {
			t.Errorf("CacheOp(%d).String() = %q, want %q", op, got, want)
		}
	}
}
