package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/numeric"
)

// Serve-level tests of the content-addressed result cache: option keying,
// cancellation hygiene, and concurrent exactly-once semantics, all through
// the HTTP boundary. The cache's own unit tests live in internal/servecache.

// TestCacheRepeatRequestHits pins the basic flow: the first request solves
// (cached=false), repeats of the same graph under the same options — in
// either encoding — are served from the cache (cached=true) with an
// identical answer, and the counters show up in /debug/vars.
func TestCacheRepeatRequestHits(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	g, err := gen.Sprand(gen.SprandConfig{N: 10, M: 30, MinWeight: -40, MaxWeight: 40, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}

	solveOnce := func(gr GraphRequest) GraphResult {
		status, body := post(t, ts, SolveRequest{Requests: []GraphRequest{gr}})
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, body)
		}
		return decodeResults(t, body)[0]
	}

	first := solveOnce(GraphRequest{Text: graphText(t, g)})
	if !first.OK || first.Cached {
		t.Fatalf("first request: ok=%v cached=%v, want solved fresh", first.OK, first.Cached)
	}
	// Same graph as text again, then as JSON: both must hit — the
	// fingerprint is content-addressed, not encoding-addressed.
	for i, gr := range []GraphRequest{
		{Text: graphText(t, g)},
		{Graph: graphJSON(t, g)},
	} {
		res := solveOnce(gr)
		if !res.OK || !res.Cached {
			t.Fatalf("repeat %d: ok=%v cached=%v, want cache hit", i, res.OK, res.Cached)
		}
		if res.Value.Num != first.Value.Num || res.Value.Den != first.Value.Den {
			t.Fatalf("repeat %d: value %+v, first %+v", i, res.Value, first.Value)
		}
		if fmt.Sprint(res.Cycle) != fmt.Sprint(first.Cycle) {
			t.Fatalf("repeat %d: cycle %v, first %v", i, res.Cycle, first.Cycle)
		}
	}

	stats, enabled := s.CacheStats()
	if !enabled || stats.Hits != 2 || stats.Misses != 1 || stats.Entries != 1 {
		t.Fatalf("cache stats %+v (enabled=%v), want 2 hits / 1 miss / 1 entry", stats, enabled)
	}

	// The counters must be visible on /debug/vars under both the cache
	// branch and the solver metrics (serve_cache_*).
	resp, err := ts.Client().Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var vars struct {
		Cache *struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"cache"`
		Solver map[string]any `json:"solver"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if vars.Cache == nil || vars.Cache.Hits != 2 || vars.Cache.Misses != 1 {
		t.Fatalf("/debug/vars cache branch %+v", vars.Cache)
	}
	if got := vars.Solver["serve_cache_hits"].(float64); got != 2 {
		t.Fatalf("solver serve_cache_hits %v, want 2", got)
	}
}

// TestCacheOptionNearMisses is the serve half of satellite 1: every
// solve-relevant option flip must key a distinct entry. In particular a
// certified request must never be answered by a cached uncertified result —
// the response's certified flag is asserted, not just the value.
func TestCacheOptionNearMisses(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	g, err := gen.Sprand(gen.SprandConfig{N: 8, M: 24, MinWeight: -30, MaxWeight: 30, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	arcs := append([]graph.Arc(nil), g.Arcs()...)
	for i := range arcs {
		arcs[i].Transit = 1 + int64(i%3)
	}
	g = graph.FromArcs(g.NumNodes(), arcs)
	text := graphText(t, g)

	variants := []GraphRequest{
		{ID: "base", Text: text},
		{ID: "certify", Text: text, Certify: true},
		{ID: "kernelize", Text: text, Kernelize: true},
		{ID: "certify-kernelize", Text: text, Certify: true, Kernelize: true},
		{ID: "maximize", Text: text, Maximize: true},
		{ID: "karp", Text: text, Algorithm: "karp"},
		{ID: "ratio", Text: text, Problem: "ratio"},
		{ID: "ratio-certify", Text: text, Problem: "ratio", Certify: true},
		{ID: "approx", Text: text, Algorithm: "approx", ApproxEpsilon: 0.05},
		{ID: "approx-tight", Text: text, Algorithm: "approx", ApproxEpsilon: 0.01},
		{ID: "approx-ap", Text: text, Algorithm: "approx", ApproxEpsilon: 0.05, ApproxMode: "ap"},
		{ID: "approx-sharpen", Text: text, Algorithm: "approx", ApproxEpsilon: 0.05, ApproxSharpen: true},
	}
	run := func(gr GraphRequest) GraphResult {
		status, body := post(t, ts, SolveRequest{Requests: []GraphRequest{gr}})
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", gr.ID, status, body)
		}
		res := decodeResults(t, body)[0]
		if !res.OK {
			t.Fatalf("%s: %+v", gr.ID, res.Error)
		}
		return res
	}

	// First pass: every variant is a distinct key, so every one solves.
	for _, gr := range variants {
		if res := run(gr); res.Cached {
			t.Fatalf("%s: served from cache on first sight — option missing from the key", gr.ID)
		}
	}
	stats, _ := s.CacheStats()
	if stats.Misses != int64(len(variants)) || stats.Hits != 0 {
		t.Fatalf("after first pass: %+v, want %d misses / 0 hits", stats, len(variants))
	}

	// Second pass: every variant hits its own entry, and the certification
	// flag survives the round-trip — a certify=true repeat must come back
	// certified (from the certified entry), and certify=false must not.
	for _, gr := range variants {
		res := run(gr)
		if !res.Cached {
			t.Fatalf("%s: repeat did not hit", gr.ID)
		}
		if res.Certified != gr.Certify {
			t.Fatalf("%s: certified=%v for certify=%v — cache crossed certification boundaries", gr.ID, res.Certified, gr.Certify)
		}
	}
	stats, _ = s.CacheStats()
	if stats.Hits != int64(len(variants)) {
		t.Fatalf("after second pass: %+v, want %d hits", stats, len(variants))
	}

	// The default approx mode spelling and the explicit "chkl" canonicalize
	// to one key: spelling the mode out must hit the default-mode entry.
	res := run(GraphRequest{ID: "approx-canonical", Text: text, Algorithm: "approx", ApproxEpsilon: 0.05, ApproxMode: "chkl"})
	if !res.Cached {
		t.Fatalf("explicit chkl mode missed the default-mode entry — mode not canonicalized in the key")
	}
}

// TestCacheDeadlineNotPoisoned is the serve half of satellite 2: a solve
// that dies on its deadline must not leave anything behind — the next
// request for the same key re-solves and succeeds, then caches normally.
func TestCacheDeadlineNotPoisoned(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	var calls atomic.Int32
	s.testHookSolving = func(ctx context.Context) {
		if calls.Add(1) == 1 {
			<-ctx.Done() // first solve outlives its budget
		}
	}
	gr := GraphRequest{Text: "p mcm 2 2\na 1 2 3\na 2 1 5\n"}

	status, body := post(t, ts, SolveRequest{
		DeadlineMillis: 50,
		Requests:       []GraphRequest{gr},
	})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	res := decodeResults(t, body)[0]
	if res.OK || res.Error == nil || res.Error.Code != CodeDeadlineExceeded {
		t.Fatalf("doomed solve: %+v", res)
	}
	if stats, _ := s.CacheStats(); stats.Entries != 0 {
		t.Fatalf("canceled solve was stored: %+v", stats)
	}

	// Same key again: must re-solve (not hit a poisoned entry) and succeed.
	status, body = post(t, ts, SolveRequest{Requests: []GraphRequest{gr}})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	res = decodeResults(t, body)[0]
	if !res.OK || res.Cached || res.Value.Num != 4 || res.Value.Den != 1 {
		t.Fatalf("re-solve after deadline: %+v", res)
	}

	// And now it is cached like any other success.
	status, body = post(t, ts, SolveRequest{Requests: []GraphRequest{gr}})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if res = decodeResults(t, body)[0]; !res.OK || !res.Cached {
		t.Fatalf("third request: %+v, want cache hit", res)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("solver entered %d times, want 2 (doomed + re-solve)", got)
	}
}

// TestCacheConcurrentExactlyOnce is satellite 3: 16 goroutines hammer the
// server with a mix of identical and distinct graphs over both the buffered
// and streaming paths. Every response must be bit-identical to the direct
// in-process solve, and the solver must have entered exactly once per
// distinct (graph, options) key — everything else was a hit or a
// singleflight merge. Runs under -race in the e2e gate.
func TestCacheConcurrentExactlyOnce(t *testing.T) {
	// The admission window (Workers+QueueDepth) comfortably exceeds the
	// worst-case concurrent demand (16 goroutines × 5 graphs), so buffered
	// batches are never 429'd and every outcome must be a correct answer.
	s, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 128})
	var solves atomic.Int64
	s.testHookSolving = func(ctx context.Context) { solves.Add(1) }

	howard, err := core.ByName("howard")
	if err != nil {
		t.Fatal(err)
	}
	type tcase struct {
		text string
		want numeric.Rat
	}
	const distinct = 4
	cases := make([]tcase, distinct)
	for i := range cases {
		g, err := gen.Sprand(gen.SprandConfig{N: 12, M: 36, MinWeight: -60, MaxWeight: 60, Seed: uint64(70 + i)})
		if err != nil {
			t.Fatal(err)
		}
		direct, err := core.MinimumCycleMean(g, howard, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cases[i] = tcase{graphText(t, g), direct.Mean}
	}

	const goroutines = 16
	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				// Every batch carries all distinct graphs plus a duplicate,
				// so identical keys collide across goroutines constantly.
				req := SolveRequest{Requests: make([]GraphRequest, 0, distinct+1)}
				for i := range cases {
					req.Requests = append(req.Requests, GraphRequest{ID: fmt.Sprintf("g%d", i), Text: cases[i].text})
				}
				req.Requests = append(req.Requests, GraphRequest{ID: "g0", Text: cases[0].text})

				var results []GraphResult
				if (w+round)%2 == 0 {
					status, body, err := tryPost(ts, req)
					if err != nil {
						errs <- err
						return
					}
					if status != http.StatusOK {
						errs <- fmt.Errorf("worker %d: status %d: %s", w, status, body)
						return
					}
					if results, err = tryDecodeResults(body); err != nil {
						errs <- err
						return
					}
				} else {
					var err error
					results, _, err = tryPostStream(ts, req)
					if err != nil {
						errs <- fmt.Errorf("worker %d stream: %w", w, err)
						return
					}
				}
				if len(results) != distinct+1 {
					errs <- fmt.Errorf("worker %d: %d results", w, len(results))
					return
				}
				for _, res := range results {
					var idx int
					if _, err := fmt.Sscanf(res.ID, "g%d", &idx); err != nil {
						errs <- fmt.Errorf("worker %d: bad id %q", w, res.ID)
						return
					}
					want := cases[idx].want
					if !res.OK || res.Value == nil || res.Value.Num != want.Num() || res.Value.Den != want.Den() {
						errs <- fmt.Errorf("worker %d %s: %+v, direct %v", w, res.ID, res.Value, want)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got := solves.Load(); got != distinct {
		t.Fatalf("solver entered %d times for %d distinct keys — singleflight/cache leaked solves", got, distinct)
	}
	stats, _ := s.CacheStats()
	total := int64(goroutines * rounds * (distinct + 1))
	if stats.Misses != distinct {
		t.Fatalf("cache misses %d, want %d", stats.Misses, distinct)
	}
	if stats.Hits+stats.Singleflight != total-distinct {
		t.Fatalf("hits %d + merges %d != %d non-leader requests", stats.Hits, stats.Singleflight, total-distinct)
	}
}

// TestNoCacheDisablesEverything pins the escape hatch: with NoCache the
// response never claims cached results, /debug/vars has no cache branch, and
// every repeat solves.
func TestNoCacheDisablesEverything(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, NoCache: true})
	var solves atomic.Int64
	s.testHookSolving = func(ctx context.Context) { solves.Add(1) }
	gr := GraphRequest{Text: "p mcm 2 2\na 1 2 3\na 2 1 5\n"}
	for i := 0; i < 3; i++ {
		status, body := post(t, ts, SolveRequest{Requests: []GraphRequest{gr}})
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, body)
		}
		if res := decodeResults(t, body)[0]; !res.OK || res.Cached {
			t.Fatalf("request %d: %+v", i, res)
		}
	}
	if got := solves.Load(); got != 3 {
		t.Fatalf("solver entered %d times, want 3 with the cache off", got)
	}
	if _, enabled := s.CacheStats(); enabled {
		t.Fatal("CacheStats claims a cache exists under NoCache")
	}
	resp, err := ts.Client().Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var vars map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, ok := vars["cache"]; ok {
		t.Fatalf("/debug/vars has a cache branch under NoCache: %v", vars["cache"])
	}
	solver, _ := vars["solver"].(map[string]any)
	if hits, _ := solver["serve_cache_hits"].(float64); hits != 0 {
		t.Fatalf("solver serve_cache_hits %v under NoCache, want 0", hits)
	}
}
