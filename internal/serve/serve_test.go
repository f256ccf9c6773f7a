package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/numeric"
	"repro/internal/verify"
)

// graphText renders g in the text wire format.
func graphText(t testing.TB, g *graph.Graph) string {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// graphJSON renders g in the inline JSON wire format.
func graphJSON(t testing.TB, g *graph.Graph) json.RawMessage {
	t.Helper()
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// tryPost sends a solve request; safe from any goroutine (no t.Fatal).
func tryPost(ts *httptest.Server, body any) (int, []byte, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	return tryPostRaw(ts, data)
}

func tryPostRaw(ts *httptest.Server, data []byte) (int, []byte, error) {
	resp, err := ts.Client().Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(data))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, out.Bytes(), nil
}

// post is tryPost for the test goroutine: transport failures are fatal.
func post(t testing.TB, ts *httptest.Server, body any) (int, []byte) {
	t.Helper()
	status, out, err := tryPost(ts, body)
	if err != nil {
		t.Fatal(err)
	}
	return status, out
}

func postRaw(t testing.TB, ts *httptest.Server, data []byte) (int, []byte) {
	t.Helper()
	status, out, err := tryPostRaw(ts, data)
	if err != nil {
		t.Fatal(err)
	}
	return status, out
}

// tryDecodeResults parses a batch response; safe from any goroutine.
func tryDecodeResults(body []byte) ([]GraphResult, error) {
	var resp SolveResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("undecodable response: %v\n%s", err, body)
	}
	return resp.Results, nil
}

func decodeResults(t testing.TB, body []byte) []GraphResult {
	t.Helper()
	results, err := tryDecodeResults(body)
	if err != nil {
		t.Fatal(err)
	}
	return results
}

func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// checkCycleValue asserts the returned cycle exists in g and attains value
// (weight/length for means, weight/transit for ratios).
func checkCycleValue(t *testing.T, g *graph.Graph, res GraphResult, ratioProblem bool) {
	t.Helper()
	if err := g.ValidateCycle(res.Cycle); err != nil {
		t.Fatalf("returned cycle invalid: %v", err)
	}
	w := g.CycleWeight(res.Cycle)
	den := int64(len(res.Cycle))
	if ratioProblem {
		den = g.CycleTransit(res.Cycle)
	}
	got := numeric.NewRat(w, den)
	want := numeric.NewRat(res.Value.Num, res.Value.Den)
	if !got.Equal(want) {
		t.Fatalf("cycle attains %v, response value %v", got, want)
	}
}

// TestBatchSolveAgainstOracle drives mean, max, ratio, certify, and
// kernelize requests through the HTTP boundary and checks every answer
// against the brute-force cycle-enumeration oracle.
func TestBatchSolveAgainstOracle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})

	// Small graphs the oracle can enumerate exhaustively. Transit times 1-3
	// make the ratio problem distinct from the mean problem.
	graphs := make(map[string]*graph.Graph)
	for seed := uint64(0); seed < 4; seed++ {
		g, err := gen.Sprand(gen.SprandConfig{N: 8, M: 20, MinWeight: -50, MaxWeight: 50, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		arcs := append([]graph.Arc(nil), g.Arcs()...)
		for i := range arcs {
			arcs[i].Transit = 1 + int64(i%3)
		}
		graphs[fmt.Sprintf("sprand-%d", seed)] = graph.FromArcs(g.NumNodes(), arcs)
	}
	ms, err := gen.MultiSCC(3, 5, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	graphs["multiscc"] = ms

	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			minMean, _, err := verify.BruteForceMinMean(g)
			if err != nil {
				t.Fatal(err)
			}
			maxMean, _, err := verify.BruteForceMaxMean(g)
			if err != nil {
				t.Fatal(err)
			}
			minRatio, _, err := verify.BruteForceMinRatio(g)
			if err != nil {
				t.Fatal(err)
			}

			req := SolveRequest{Requests: []GraphRequest{
				{ID: "mean", Text: graphText(t, g)},
				{ID: "mean-json", Graph: graphJSON(t, g), Certify: true},
				{ID: "mean-kernel", Text: graphText(t, g), Algorithm: "karp", Kernelize: true},
				{ID: "mean-max", Graph: graphJSON(t, g), Maximize: true, Certify: true},
				{ID: "ratio", Text: graphText(t, g), Problem: "ratio", Certify: true},
				{ID: "ratio-lawler", Graph: graphJSON(t, g), Problem: "ratio", Algorithm: "lawler"},
				{ID: "ratio-sb", Text: graphText(t, g), Problem: "ratio", Algorithm: "sternbrocot", Certify: true},
				{ID: "mean-madani", Graph: graphJSON(t, g), Algorithm: "madani", Certify: true},
				{ID: "ratio-bhk", Text: graphText(t, g), Problem: "ratio", Algorithm: "bhk", Certify: true},
			}}
			status, body := post(t, ts, req)
			if status != http.StatusOK {
				t.Fatalf("status %d: %s", status, body)
			}
			results := decodeResults(t, body)
			if len(results) != len(req.Requests) {
				t.Fatalf("%d results for %d requests", len(results), len(req.Requests))
			}
			want := map[string]numeric.Rat{
				"mean": minMean, "mean-json": minMean, "mean-kernel": minMean,
				"mean-max": maxMean, "ratio": minRatio, "ratio-lawler": minRatio,
				"ratio-sb": minRatio, "mean-madani": minMean, "ratio-bhk": minRatio,
			}
			for _, res := range results {
				if !res.OK || res.Error != nil {
					t.Fatalf("%s failed: %+v", res.ID, res.Error)
				}
				w := want[res.ID]
				if res.Value == nil || res.Value.Num != w.Num() || res.Value.Den != w.Den() {
					t.Fatalf("%s: value %+v, oracle %v", res.ID, res.Value, w)
				}
				if !res.Exact {
					t.Fatalf("%s: inexact result from exact solver", res.ID)
				}
				wantCert := res.ID == "mean-json" || res.ID == "mean-max" || res.ID == "ratio" ||
					res.ID == "ratio-sb" || res.ID == "mean-madani" || res.ID == "ratio-bhk"
				if res.Certified != wantCert {
					t.Fatalf("%s: certified=%v, want %v", res.ID, res.Certified, wantCert)
				}
				if res.ID != "mean-max" { // max cycles attain the max value; skip the min check
					checkCycleValue(t, g, res, strings.HasPrefix(res.ID, "ratio"))
				}
			}
		})
	}
}

// TestTypedSolverErrors asserts the per-graph error codes for degenerate
// inputs: no batch-wide failure, one typed body per graph.
func TestTypedSolverErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	acyclic := graph.FromArcs(3, []graph.Arc{
		{From: 0, To: 1, Weight: 1, Transit: 1},
		{From: 1, To: 2, Weight: 1, Transit: 1},
	})
	bigWeight := graph.FromArcs(1, []graph.Arc{{From: 0, To: 0, Weight: 1 << 33, Transit: 1}})
	zeroTransit := graph.FromArcs(2, []graph.Arc{
		{From: 0, To: 1, Weight: 1, Transit: 0},
		{From: 1, To: 0, Weight: 1, Transit: 0},
	})

	req := SolveRequest{Requests: []GraphRequest{
		{ID: "acyclic", Graph: graphJSON(t, acyclic)},
		{ID: "weight-range", Graph: graphJSON(t, bigWeight)},
		{ID: "zero-transit", Graph: graphJSON(t, zeroTransit), Problem: "ratio"},
		{ID: "unknown-algo", Graph: graphJSON(t, acyclic), Algorithm: "nosuch"},
		{ID: "unknown-problem", Graph: graphJSON(t, acyclic), Problem: "median"},
		{ID: "bad-text", Text: "p mcm 2 1\na 1 5 3\n"},
		{ID: "huge-text", Text: "p mcm 99999999 3\n"},
		{ID: "huge-json", Graph: json.RawMessage(`{"nodes": 134217728, "arcs": []}`)},
		{ID: "both-forms", Text: "p mcm 1 0\n", Graph: graphJSON(t, acyclic)},
		{ID: "neither-form"},
	}}
	status, body := post(t, ts, req)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	wantCodes := map[string]string{
		"acyclic":         CodeAcyclic,
		"weight-range":    CodeWeightRange,
		"zero-transit":    CodeNonPositiveTransit,
		"unknown-algo":    CodeUnknownAlgorithm,
		"unknown-problem": CodeBadRequest,
		"bad-text":        CodeBadGraph,
		"huge-text":       CodeBadGraph,
		"huge-json":       CodeBadGraph,
		"both-forms":      CodeBadGraph,
		"neither-form":    CodeBadGraph,
	}
	for _, res := range decodeResults(t, body) {
		if res.OK || res.Error == nil {
			t.Fatalf("%s: expected a typed error, got OK", res.ID)
		}
		if res.Error.Code != wantCodes[res.ID] {
			t.Fatalf("%s: code %q, want %q (%s)", res.ID, res.Error.Code, wantCodes[res.ID], res.Error.Message)
		}
	}
}

// TestExpandWeightRange pins the wire form of a ratio solve by expand whose
// weight (2^33) fits int64 but not the inner mean solver's ±(2^31−1)
// contract: weight_range with the inner solver's message, although the Go
// error also matches ratio.ErrNumericRange.
func TestExpandWeightRange(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	g := graph.FromArcs(1, []graph.Arc{{From: 0, To: 0, Weight: 1 << 33, Transit: 1}})
	req := SolveRequest{Requests: []GraphRequest{
		{ID: "expand", Graph: graphJSON(t, g), Problem: "ratio", Algorithm: "expand"},
		{ID: "howard", Graph: graphJSON(t, g), Problem: "ratio"},
	}}
	status, body := post(t, ts, req)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	for _, res := range decodeResults(t, body) {
		switch {
		case res.ID == "howard" && !res.OK:
			t.Fatalf("howard: %+v, want solved", res.Error)
		case res.ID == "expand" && (res.OK || res.Error.Code != CodeWeightRange ||
			!strings.HasSuffix(res.Error.Message, "ratio: inner howard on expanded graph: "+core.ErrWeightRange.Error())):
			t.Fatalf("expand: OK %v, error %+v, want %s with the inner message", res.OK, res.Error, CodeWeightRange)
		}
	}
}

// TestRequestLevelRejections covers the non-200 request failures: bad
// method, malformed JSON, empty and oversized batches, oversized bodies.
func TestRequestLevelRejections(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxBatch: 2, MaxBodyBytes: 2048})

	t.Run("method", func(t *testing.T) {
		resp, err := ts.Client().Get(ts.URL + "/v1/solve")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("status %d", resp.StatusCode)
		}
	})
	t.Run("malformed-json", func(t *testing.T) {
		status, body := postRaw(t, ts, []byte(`{"requests": [`))
		if status != http.StatusBadRequest || !bytes.Contains(body, []byte(CodeBadRequest)) {
			t.Fatalf("status %d: %s", status, body)
		}
	})
	t.Run("empty-batch", func(t *testing.T) {
		status, body := postRaw(t, ts, []byte(`{"requests": []}`))
		if status != http.StatusBadRequest || !bytes.Contains(body, []byte(CodeBadRequest)) {
			t.Fatalf("status %d: %s", status, body)
		}
	})
	t.Run("batch-too-large", func(t *testing.T) {
		status, body := postRaw(t, ts, []byte(`{"requests": [{}, {}, {}]}`))
		if status != http.StatusBadRequest || !bytes.Contains(body, []byte(CodeBatchTooLarge)) {
			t.Fatalf("status %d: %s", status, body)
		}
	})
	t.Run("body-too-large", func(t *testing.T) {
		big := fmt.Sprintf(`{"requests": [{"text": %q}]}`, strings.Repeat("c padding\n", 400))
		status, body := postRaw(t, ts, []byte(big))
		if status != http.StatusRequestEntityTooLarge || !bytes.Contains(body, []byte(CodeBodyTooLarge)) {
			t.Fatalf("status %d: %s", status, body)
		}
	})
}

// TestDeadlineExpiry covers both expiry flavors: mid-solve (the worker is
// already solving when the budget ends — the solver must unwind at its next
// checkpoint with a typed error, never a panic or an empty 200) and
// while-queued (the budget ends before a worker picks the graph up).
func TestDeadlineExpiry(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	// The hook parks the worker until the request budget expires, which
	// deterministically models a solve that outlives its deadline.
	s.testHookSolving = func(ctx context.Context) { <-ctx.Done() }

	status, body := post(t, ts, SolveRequest{
		DeadlineMillis: 60,
		Requests: []GraphRequest{
			{ID: "mid-solve", Text: "p mcm 2 2\na 1 2 3\na 2 1 5\n"},
			{ID: "queued", Text: "p mcm 2 2\na 1 2 3\na 2 1 5\n"},
		},
	})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	for _, res := range decodeResults(t, body) {
		if res.OK || res.Error == nil || res.Error.Code != CodeDeadlineExceeded {
			t.Fatalf("%s: want %s, got %+v / %+v", res.ID, CodeDeadlineExceeded, res.Value, res.Error)
		}
	}
	if got := s.metrics.deadlines.Load(); got != 2 {
		t.Fatalf("deadline metric %d, want 2", got)
	}
}

// TestMidSolveDeadlineRealSolver exercises a genuine mid-solve expiry with
// no test hook: a graph large enough to take a while, a budget too small to
// finish it, and the solver's cooperative checkpoint doing the unwinding.
func TestMidSolveDeadlineRealSolver(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	g, err := gen.Sprand(gen.SprandConfig{N: 3000, M: 12000, MinWeight: -1000, MaxWeight: 1000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	status, body := post(t, ts, SolveRequest{Requests: []GraphRequest{
		// Certified Lawler on 3000 nodes takes far longer than 1ms.
		{ID: "doomed", Text: graphText(t, g), Algorithm: "lawler", Certify: true, DeadlineMillis: 1},
	}})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	res := decodeResults(t, body)[0]
	if res.OK || res.Error == nil || res.Error.Code != CodeDeadlineExceeded {
		t.Fatalf("want %s, got ok=%v err=%+v", CodeDeadlineExceeded, res.OK, res.Error)
	}
}

// TestQueueFullBackpressure saturates a 1-worker, 1-deep queue and asserts
// the overflow request is rejected with 429 + Retry-After while the admitted
// requests still complete correctly once the worker unblocks.
func TestQueueFullBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, RetryAfter: 3 * time.Second})
	release := make(chan struct{})
	s.testHookSolving = func(ctx context.Context) {
		select {
		case <-release:
		case <-ctx.Done():
		}
	}

	req := SolveRequest{Requests: []GraphRequest{{Text: "p mcm 2 2\na 1 2 3\na 2 1 5\n"}}}
	type reply struct {
		status int
		body   []byte
		err    error
	}
	replies := make(chan reply, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, body, err := tryPost(ts, req)
			replies <- reply{status, body, err}
		}()
	}
	// Wait until both admission tokens are held (capacity Workers+QueueDepth
	// = 2), so the server is provably saturated before the overflow probe.
	deadline := time.Now().Add(5 * time.Second)
	for len(s.admit) != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never saturated: admit=%d", len(s.admit))
		}
		time.Sleep(time.Millisecond)
	}

	status, body := post(t, ts, req)
	if status != http.StatusTooManyRequests {
		t.Fatalf("overflow status %d: %s", status, body)
	}
	if !bytes.Contains(body, []byte(CodeQueueFull)) {
		t.Fatalf("overflow body missing %s: %s", CodeQueueFull, body)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/solve", "application/json",
		strings.NewReader(`{"requests":[{"text":"p mcm 1 1\na 1 1 1\n"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "3" {
		t.Fatalf("status %d Retry-After %q, want 429 with \"3\"", resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	close(release)
	wg.Wait()
	close(replies)
	for r := range replies {
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.status != http.StatusOK {
			t.Fatalf("admitted request failed: %d %s", r.status, r.body)
		}
		res := decodeResults(t, r.body)[0]
		if !res.OK || res.Value == nil || res.Value.Num != 4 || res.Value.Den != 1 {
			t.Fatalf("admitted request wrong answer: %+v", res)
		}
	}
	if got := s.metrics.queueFull.Load(); got != 2 {
		t.Fatalf("queue-full metric %d, want 2", got)
	}
}

// TestGracefulDrain starts a solve, initiates a drain mid-flight, and
// asserts: new requests answer 503, health flips to draining, the in-flight
// request completes with a correct answer, and Drain returns only then.
func TestGracefulDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	s.testHookSolving = func(ctx context.Context) {
		once.Do(func() { close(started) })
		select {
		case <-release:
		case <-ctx.Done():
		}
	}

	inflight := make(chan []byte, 1)
	go func() {
		_, body, err := tryPost(ts, SolveRequest{Requests: []GraphRequest{{Text: "p mcm 2 2\na 1 2 3\na 2 1 5\n"}}})
		if err != nil {
			body = []byte(err.Error())
		}
		inflight <- body
	}()
	<-started

	drainDone := make(chan error, 1)
	go func() { drainDone <- s.Drain(context.Background()) }()
	deadline := time.Now().Add(5 * time.Second)
	for !s.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("drain flag never set")
		}
		time.Sleep(time.Millisecond)
	}

	// New work is refused while the old solve is still running.
	status, body := post(t, ts, SolveRequest{Requests: []GraphRequest{{Text: "p mcm 1 1\na 1 1 1\n"}}})
	if status != http.StatusServiceUnavailable || !bytes.Contains(body, []byte(CodeDraining)) {
		t.Fatalf("during drain: status %d body %s", status, body)
	}
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: %d", resp.StatusCode)
	}
	select {
	case err := <-drainDone:
		t.Fatalf("drain returned %v with a request in flight", err)
	default:
	}

	close(release)
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
	res := decodeResults(t, <-inflight)[0]
	if !res.OK || res.Value == nil || res.Value.Num != 4 {
		t.Fatalf("in-flight request not completed correctly: %+v", res)
	}

	// An interrupted drain reports the failure instead of hanging.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

// TestDrainTimeout pins that a drain bounded by an already-expired context
// reports the interruption instead of waiting forever.
func TestDrainTimeout(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	release := make(chan struct{})
	defer close(release)
	started := make(chan struct{})
	var once sync.Once
	s.testHookSolving = func(ctx context.Context) {
		once.Do(func() { close(started) })
		select {
		case <-release:
		case <-ctx.Done():
		}
	}
	go tryPost(ts, SolveRequest{Requests: []GraphRequest{{Text: "p mcm 2 2\na 1 2 3\na 2 1 5\n"}}})
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err == nil {
		t.Fatal("drain with stuck request returned nil")
	}
}

// TestSessionWarmReuse pins the serving hot path: repeat topologies with
// perturbed weights must hit the warm-start cache, and certified and plain
// requests must use separate sessions.
func TestSessionWarmReuse(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	base, err := gen.Sprand(gen.SprandConfig{N: 20, M: 60, MinWeight: -100, MaxWeight: 100, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for round := int64(0); round < 3; round++ {
		arcs := append([]graph.Arc(nil), base.Arcs()...)
		for i := range arcs {
			arcs[i].Weight += round * int64(i%5)
		}
		g := graph.FromArcs(base.NumNodes(), arcs)
		want, _, err := verify.BruteForceMinMean(g)
		if err != nil {
			t.Fatal(err)
		}
		status, body := post(t, ts, SolveRequest{Requests: []GraphRequest{
			{ID: "plain", Text: graphText(t, g)},
			{ID: "certified", Text: graphText(t, g), Certify: true},
		}})
		if status != http.StatusOK {
			t.Fatalf("round %d: status %d: %s", round, status, body)
		}
		for _, res := range decodeResults(t, body) {
			if !res.OK || res.Value.Num != want.Num() || res.Value.Den != want.Den() {
				t.Fatalf("round %d %s: %+v want %v", round, res.ID, res.Value, want)
			}
		}
	}
	plain, certified := s.SessionStats()
	if plain.WarmHits < 2 || certified.WarmHits < 2 {
		t.Fatalf("warm hits plain=%d certified=%d, want >=2 each (stats %+v / %+v)", plain.WarmHits, certified.WarmHits, plain, certified)
	}
}

// TestVarsAndHealth covers the observability endpoints: /debug/vars carries
// both serve- and solver-level counters, /healthz answers ok, and
// /debug/pprof/ is mounted on the same mux.
func TestVarsAndHealth(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	if status, body := post(t, ts, SolveRequest{Requests: []GraphRequest{{Text: "p mcm 1 1\na 1 1 7\n"}}}); status != http.StatusOK {
		t.Fatalf("solve: %d %s", status, body)
	}

	resp, err := ts.Client().Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var vars struct {
		Serve  map[string]any `json:"serve"`
		Solver map[string]any `json:"solver"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := vars.Serve["graphs_ok"].(float64); got != 1 {
		t.Fatalf("graphs_ok %v", got)
	}
	if got := vars.Solver["solver_runs"].(float64); got < 1 {
		t.Fatalf("solver_runs %v", got)
	}
	if _, ok := vars.Solver["algorithms"].(map[string]any)["howard"]; !ok {
		t.Fatalf("per-algorithm counters missing: %v", vars.Solver["algorithms"])
	}

	for _, path := range []string{"/healthz", "/debug/pprof/"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d", path, resp.StatusCode)
		}
	}
}

// TestConcurrentMixedLoad fires many concurrent batches with mixed problems
// and deadlines and asserts every response is either a correct value or a
// typed error — never an empty 200 — while the server stays race-clean
// (this test is part of the -race e2e gate).
func TestConcurrentMixedLoad(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 64})

	// Everything the goroutines need is materialized up front: the helpers
	// below call t.Fatal, which is only legal on the test goroutine.
	type expect struct {
		text string
		raw  json.RawMessage
		want numeric.Rat
	}
	cases := make([]expect, 6)
	for i := range cases {
		g, err := gen.Sprand(gen.SprandConfig{N: 10, M: 30, MinWeight: -40, MaxWeight: 40, Seed: uint64(40 + i)})
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := verify.BruteForceMinMean(g)
		if err != nil {
			t.Fatal(err)
		}
		cases[i] = expect{graphText(t, g), graphJSON(t, g), want}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				e := cases[(c+round)%len(cases)]
				req := SolveRequest{Requests: []GraphRequest{
					{ID: "a", Text: e.text, Certify: round%2 == 0},
					{ID: "b", Graph: e.raw, Algorithm: "portfolio"},
					{ID: "c", Text: e.text, Problem: "ratio"},
					// A 1ms-deadline entry races admission against expiry; both
					// outcomes are legal, but it must never produce an empty 200.
					{ID: "d", Text: e.text, DeadlineMillis: 1},
				}}
				status, body, err := tryPost(ts, req)
				if err != nil {
					errs <- err
					return
				}
				if status == http.StatusTooManyRequests {
					continue // backpressure is a legal outcome under load
				}
				if status != http.StatusOK {
					errs <- fmt.Errorf("status %d: %s", status, body)
					return
				}
				results, err := tryDecodeResults(body)
				if err != nil {
					errs <- err
					return
				}
				for _, res := range results {
					switch {
					case res.OK && res.Error == nil && res.Value != nil:
						if res.ID == "a" || res.ID == "b" {
							if res.Value.Num != e.want.Num() || res.Value.Den != e.want.Den() {
								errs <- fmt.Errorf("%s: %+v want %v", res.ID, res.Value, e.want)
								return
							}
						}
					case !res.OK && res.Error != nil && res.Error.Code != "":
						// typed failure: fine
					default:
						errs <- fmt.Errorf("%s: neither value nor typed error: %+v", res.ID, res)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
