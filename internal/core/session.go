package core

// Session is the repeated-solve engine behind the ROADMAP's "serve heavy
// repeated traffic" goal: a server answering minimum-cycle-mean queries over
// a slowly changing design sees the same graph structure solve after solve,
// with only arc weights perturbed between solves (timing updates, what-if
// edits). Howard's policy iteration converges to the exact optimum from ANY
// structurally valid starting policy — every return is gated by an exact
// feasibility certificate — so the previous solve's optimal policy is a
// correct warm start for the next one, and when weights moved only a little
// the warm-started run typically converges in one or two iterations instead
// of rebuilding the policy from the cheapest-arc guess.
//
// The cache key is a structural fingerprint of each strongly connected
// component: node count, arc count, and every arc's (From, To, Transit)
// triple — deliberately NOT the weights, so weight-only updates hit the
// cache. Any structural change (node or arc added/removed, endpoints
// rewired) changes the fingerprint and the stale policy is never consulted;
// validWarmPolicy re-checks the policy against the concrete graph anyway, so
// even a fingerprint collision cannot smuggle an out-of-range or wrong-node
// arc into the solver.

import (
	"context"
	"sync"
	"time"

	"repro/internal/counter"
	"repro/internal/graph"
	"repro/internal/obs"
)

// sessionMaxEntries bounds the policy cache. When a session has seen more
// distinct component structures than this, the cache is cleared wholesale
// (the workload Session targets has a small, stable set of structures, so
// wholesale clearing is simpler than LRU and just as effective).
const sessionMaxEntries = 1024

// SessionStats counts cache behavior over a Session's lifetime.
type SessionStats struct {
	// Solves is the number of Session.Solve calls, successful or not: error
	// returns (ErrAcyclic, certification failures, numeric-range failures)
	// count too, so Solves always equals the number of times Solve was
	// invoked.
	Solves int
	// Errors is the number of Session.Solve calls that returned a non-nil
	// error; Solves − Errors is the number of successful solves.
	Errors int
	// Components is the number of cyclic SCCs solved across all calls.
	Components int
	// WarmHits counts component solves that started from a cached policy.
	WarmHits int
	// WarmMisses counts component solves that started cold.
	WarmMisses int
	// Evictions counts wholesale cache clears (see sessionMaxEntries).
	Evictions int
}

// Session runs Howard's algorithm over a sequence of related graphs,
// caching the optimal policy of every strongly connected component by
// structural fingerprint and warm-starting subsequent solves. Safe for
// concurrent use.
//
// Session always solves with Howard's algorithm: it is the study's fastest
// solver and the only one whose iteration state (the policy) is meaningful
// across solves. Options.Parallelism and Options.Kernelize are ignored —
// components are solved sequentially on the raw graph, since a kernel solved
// by closed forms leaves no policy to cache. Options.Certify is honored:
// every warm-started answer then carries the same exact optimality
// certificate a cold MinimumCycleMean solve would produce.
type Session struct {
	opt Options

	mu    sync.Mutex
	cache map[uint64][]graph.ArcID
	stats SessionStats
}

// NewSession returns an empty session; opt applies to every solve.
func NewSession(opt Options) *Session {
	return &Session{opt: opt, cache: make(map[uint64][]graph.ArcID)}
}

// Solve computes the minimum cycle mean of g exactly like
// MinimumCycleMean(g, howard, opt), warm-starting each component from the
// session's policy cache and caching the converged policies for the next
// call. Returns ErrAcyclic when g has no cycle.
func (s *Session) Solve(g *graph.Graph) (Result, error) {
	return s.solve(g, s.opt)
}

// SolveContext is Solve under a context: when ctx is done (deadline expired
// or canceled) the run unwinds with ErrCanceled at Howard's next main-loop
// checkpoint instead of running to convergence. A canceled component solve
// caches nothing, so an interrupted request never poisons the policy cache.
// This is the serving layer's hot path (see internal/serve).
func (s *Session) SolveContext(ctx context.Context, g *graph.Graph) (Result, error) {
	opt, stop := s.opt.WithCancelContext(ctx)
	defer stop()
	return s.solve(g, opt)
}

// solve is the shared implementation behind Solve and SolveContext.
func (s *Session) solve(g *graph.Graph, opt Options) (res Result, err error) {
	// Every call counts, successful or not (SessionStats.Solves documents
	// exactly that); failures are tallied separately. The error-counting
	// defer is installed before the recovery boundary so it observes the
	// error a recovered numeric panic was converted into.
	s.mu.Lock()
	s.stats.Solves++
	s.mu.Unlock()
	defer func() {
		if err != nil {
			s.mu.Lock()
			s.stats.Errors++
			s.mu.Unlock()
		}
	}()
	defer RecoverNumericRange(&err, ErrNumericRange)
	tr := opt.Tracer
	sccStarted := sccStart(tr)
	comps := graph.CyclicComponents(g)
	if len(comps) == 0 {
		return Result{}, ErrAcyclic
	}
	emitSCC(tr, comps, sccStarted)
	var (
		best  Result
		total counter.Counts
		found bool
	)
	for ci, comp := range comps {
		fp := structuralFingerprint(comp.Graph)
		s.mu.Lock()
		warm := s.cache[fp]
		entries := len(s.cache)
		s.mu.Unlock()

		if warm != nil {
			tr.Cache(obs.CacheEvent{Op: obs.CacheHit, Entries: entries})
		} else {
			tr.Cache(obs.CacheEvent{Op: obs.CacheMiss, Entries: entries})
		}
		var start time.Time
		if tr.Enabled() {
			tr.SolverStart(obs.SolverStartEvent{Algorithm: "howard", Component: ci,
				Nodes: comp.Graph.NumNodes(), Arcs: comp.Graph.NumArcs(), WarmStart: warm != nil})
			start = time.Now()
		}
		r, policy, err := howardRun(comp.Graph, opt, warm, true)
		if tr.Enabled() {
			tr.SolverDone(obs.SolverDoneEvent{Algorithm: "howard", Component: ci,
				Nodes: comp.Graph.NumNodes(), Arcs: comp.Graph.NumArcs(),
				Duration: time.Since(start), Counts: r.Counts, Value: r.Mean.Float64(), Err: err})
		}
		if err != nil {
			return Result{}, err
		}
		if !keepPotentials(g, comps, nil) {
			r.potentials = nil
		}

		s.mu.Lock()
		if warm != nil {
			s.stats.WarmHits++
		} else {
			s.stats.WarmMisses++
		}
		s.stats.Components++
		evicted := false
		if len(s.cache) >= sessionMaxEntries {
			if _, present := s.cache[fp]; !present {
				s.cache = make(map[uint64][]graph.ArcID)
				s.stats.Evictions++
				evicted = true
			}
		}
		s.cache[fp] = policy
		entries = len(s.cache)
		s.mu.Unlock()
		if evicted {
			tr.Cache(obs.CacheEvent{Op: obs.CacheEvict, Entries: entries})
		}

		total.Add(r.Counts)
		cycle := make([]graph.ArcID, len(r.Cycle))
		for i, id := range r.Cycle {
			cycle[i] = comp.ArcMap[id]
		}
		r.Cycle = cycle
		if !found || r.Mean.Less(best.Mean) {
			best = r
			found = true
		}
	}
	best.Counts = total
	if opt.Certify {
		if cerr := certifyMean(g, &best, tr); cerr != nil {
			return Result{}, cerr
		}
	}
	return best, nil
}

// Stats returns a snapshot of the session's cache counters.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Reset drops every cached policy (counters are kept). Subsequent solves
// start cold until the cache refills.
func (s *Session) Reset() {
	s.mu.Lock()
	s.cache = make(map[uint64][]graph.ArcID)
	s.mu.Unlock()
}

// structuralFingerprint hashes a graph's structure — node count, arc count,
// and each arc's (From, To, Transit) — with FNV-1a. Weights are deliberately
// excluded so weight-only updates map to the same fingerprint.
func structuralFingerprint(g *graph.Graph) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= prime64
			x >>= 8
		}
	}
	mix(uint64(g.NumNodes()))
	mix(uint64(g.NumArcs()))
	for _, a := range g.Arcs() {
		mix(uint64(a.From))
		mix(uint64(a.To))
		mix(uint64(a.Transit))
	}
	return h
}
