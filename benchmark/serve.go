package main

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/numeric"
	"repro/internal/prep"
	"repro/internal/serve"
)

// serve-mixed drives an in-process mcmd (serve.Server with Workers: 2 and
// every other setting at its default, cache on) over a loopback listener.
// All load comes from this process: at most `clients` goroutines, each
// with one request outstanding, over at most `clients` connections.
const (
	serveHot, serveN, serveM = 64, 512, 2048
	// The session graph is n = 2000 nodes in sessionBlocks SPRAND blocks
	// joined by forward arcs (gen.MultiSCC), so a delta re-solves one
	// component, as the incremental engine is built to. Inserts stay inside
	// a block, so the blocks stay the components. On a single 2000-node
	// SCC every delta re-solved everything, deltas made up most of p99,
	// and which graph a seed drew moved p99 by up to 40%.
	sessionBlocks, sessionBlockN, sessionBlockM = 20, 100, 400
	serveWorkers                                = 2
	clients                                     = 2
	// loRate and hiRate are the open-loop arrival rates in requests per
	// second, about a fifteenth and an eighth of the saturation throughput
	// on the two-core host that recorded baseline/. With two connections
	// the open loop queues client-side, and queueing amplifies the host's
	// speed swings: p99 at 200 req/s spread twice as wide as at 100, and
	// at 400 wider still.
	loRate, hiRate = 100, 200
	// warmupMixed requests from the stream follow one request per hot
	// graph in the warm-up, so the cache and the Howard session hold every
	// hot graph before timing starts.
	warmupMixed = 128
	// One in perturbCheckEvery perturbed answers is re-solved after the
	// window; every replayCheckEvery-th delta answer, and the last, is
	// compared with a fresh solve of the replayed graph.
	perturbCheckEvery = 20
	replayCheckEvery  = 25
	// opHeader tags each request with its operation id, so the traced
	// handler span joins its operation.
	opHeader = "X-Benchmark-Op"
)

// Request kinds and their shares of the stream, in percent.
type reqKind int

const (
	kindHot       reqKind = iota // exact repeat of a hot graph: a cache hit
	kindPerturbed                // hot graph with one arc reweighted: a miss that warm-starts
	kindDelta                    // one edit to the certified session
)

const hotShare, perturbedShare = 50, 30 // deltas take the remaining 20

// Session delta mix, in percent: set-weight, then insert; deletes of
// previously inserted arcs take the rest.
const setWeightShare, insertShare = 60, 20

// request is one generated request and what its answer must satisfy.
type request struct {
	kind reqKind
	path string
	body []byte
	// hot is the hot graph a solve is built from; arc and weight are the
	// perturbation, seq numbers the perturbed or delta requests in order.
	hot, arc int
	weight   int64
	seq      int
	delta    serve.DeltaRequest
	// wantID is the arc ID an insert-arc delta must receive.
	wantID int64
}

// requestStream generates serve-mixed's requests, in a fixed order, from
// the seed alone: the same seed gives byte-identical requests.
type requestStream struct {
	rng *rand.Rand
	// hotText holds each hot graph's text and lineStart the offset of each
	// of its lines (the problem line, then one per arc, then the end).
	hotText   [][]byte
	lineStart [][]int
	hotBody   [][]byte
	perturbed int
	// The delta generator's view of the session: its ID and original arc
	// count, the arcs inserted and not yet deleted, and the ID the next
	// insertion receives.
	session     string
	sessionArcs int64
	alive       []int64
	nextArc     int64
	deltas      int
}

func newRequestStream(seed uint64, hot []*graph.Graph, session string, sessionArcs int) (*requestStream, error) {
	s := &requestStream{rng: rngFor(seed, streamServeRequests), session: session,
		sessionArcs: int64(sessionArcs), nextArc: int64(sessionArcs)}
	for _, g := range hot {
		text, err := render(g)
		if err != nil {
			return nil, err
		}
		starts := []int{0}
		for i, c := range text {
			if c == '\n' {
				starts = append(starts, i+1)
			}
		}
		s.hotText = append(s.hotText, text)
		s.lineStart = append(s.lineStart, starts)
		s.hotBody = append(s.hotBody, solveBody(text))
	}
	return s, nil
}

// solveBody is a one-graph certified /v1/solve request with no algorithm,
// so the server's default engine answers it.
func solveBody(text []byte) []byte {
	body, err := json.Marshal(serve.SolveRequest{Requests: []serve.GraphRequest{{Text: string(text), Certify: true}}})
	if err != nil {
		panic(err) // a struct of strings and bools always encodes
	}
	return body
}

// hotRequest is an exact repeat of hot graph h.
func (s *requestStream) hotRequest(h int) request {
	return request{kind: kindHot, path: "/v1/solve", body: s.hotBody[h], hot: h}
}

// next returns the stream's next request.
func (s *requestStream) next() request {
	x := s.rng.IntN(100)
	switch {
	case x < hotShare:
		return s.hotRequest(s.rng.IntN(serveHot))
	case x < hotShare+perturbedShare:
		h, arc := s.rng.IntN(serveHot), s.rng.IntN(serveM)
		// Weights below minWeight never occur in the generated graphs, and
		// the counter makes each one unique, so no perturbed graph repeats.
		// A very light arc almost always moves λ*, so every warm start has
		// to repair its policy; a heavy one moved it only when it hit the
		// critical cycle, and how often that happened moved p99.
		w := int64(minWeight - 1 - s.perturbed)
		// Line 0 is the problem line; arc k is line k+1, "a <from> <to> <weight>".
		text, starts := s.hotText[h], s.lineStart[h]
		from, to := starts[arc+1], starts[arc+2]
		f := bytes.Fields(text[from:to])
		line := fmt.Sprintf("a %s %s %d\n", f[1], f[2], w)
		spliced := slices.Concat(text[:from], []byte(line), text[to:])
		r := request{kind: kindPerturbed, path: "/v1/solve", body: solveBody(spliced), hot: h, arc: arc, weight: w, seq: s.perturbed}
		s.perturbed++
		return r
	default:
		wantID := s.nextArc
		d := s.nextDelta()
		body, err := json.Marshal(d)
		if err != nil {
			panic(err) // a struct of strings and integers always encodes
		}
		r := request{kind: kindDelta, path: "/v1/session/" + s.session + "/deltas",
			body: append(body, '\n'), delta: d, seq: s.deltas, wantID: wantID}
		s.deltas++
		return r
	}
}

// nextDelta draws one session edit. Inserted arcs receive consecutive IDs
// after the original arcs, so the generator knows each one without asking.
func (s *requestStream) nextDelta() serve.DeltaRequest {
	x := s.rng.IntN(100)
	weight := minWeight + s.rng.Int64N(maxWeight-minWeight+1)
	switch {
	case x < setWeightShare:
		return serve.DeltaRequest{Op: "set-weight", Arc: s.rng.Int64N(s.sessionArcs), Weight: weight}
	case x < setWeightShare+insertShare || len(s.alive) == 0:
		block := s.rng.Int64N(sessionBlocks) * sessionBlockN
		from := s.rng.Int64N(sessionBlockN)
		to := (from + 1 + s.rng.Int64N(sessionBlockN-1)) % sessionBlockN
		s.alive = append(s.alive, s.nextArc)
		s.nextArc++
		return serve.DeltaRequest{Op: "insert-arc", From: block + from, To: block + to, Weight: weight}
	default:
		i := s.rng.IntN(len(s.alive))
		arc := s.alive[i]
		s.alive[i] = s.alive[len(s.alive)-1]
		s.alive = s.alive[:len(s.alive)-1]
		return serve.DeltaRequest{Op: "delete-arc", Arc: arc}
	}
}

// poissonArrivals returns arrival offsets at rate per second over d.
func poissonArrivals(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, at)
	}
}

// deltaAnswer is one delta as sent and the value the server answered.
type deltaAnswer struct {
	delta  serve.DeltaRequest
	wantID int64
	value  numeric.Rat
	ok     bool
}

// perturbedAnswer is a perturbed solve kept for the re-solve check.
type perturbedAnswer struct {
	hot, arc int
	weight   int64
	value    numeric.Rat
}

type serveInstance struct {
	rec      *recorder
	srv      *serve.Server
	httpSrv  *http.Server
	served   chan error
	client   *http.Client
	base     string
	arrivals *rand.Rand

	hot        []*graph.Graph
	refs       []numeric.Rat
	session    string
	sessionG   *graph.Graph
	sessionRef numeric.Rat

	mu        sync.Mutex
	cond      *sync.Cond // signals deltasDone
	stream    *requestStream
	nextOp    int
	perturbed []perturbedAnswer
	// deltaLog holds the deltas and their answers in order, and deltasDone
	// how many have finished: deltas go out one at a time, in stream order,
	// so the session sees the generated sequence.
	deltaLog   []deltaAnswer
	deltasDone int
	// Per-request server timings and refusals in the current window.
	graphElapsed, deltaElapsed []float64
	rejected                   int

	layerValues map[string]float64
}

// setupServeMixed generates the hot graphs and the session graph, computes
// their references with certified Madani, starts the server, opens the
// certified session and warms the cache and the Howard sessions.
func setupServeMixed(seed uint64, rec *recorder) (instance, error) {
	hot, err := sprandPool(rngFor(seed, streamServeHot), serveHot, serveN, serveM)
	if err != nil {
		return nil, err
	}
	sessionG, err := gen.MultiSCC(sessionBlocks, sessionBlockN, sessionBlockM, rngFor(seed, streamServeSession).Uint64())
	if err != nil {
		return nil, err
	}
	s := &serveInstance{rec: rec, hot: hot, sessionG: sessionG, arrivals: rngFor(seed, streamServeArrivals)}
	s.cond = sync.NewCond(&s.mu)
	madani := mustMean("madani")
	for i, g := range append(slices.Clone(hot), sessionG) {
		r, err := core.MinimumCycleMean(g, madani, core.Options{Certify: true})
		if err != nil {
			return nil, fmt.Errorf("reference for graph %d: %w", i, err)
		}
		if i < len(hot) {
			s.refs = append(s.refs, r.Mean)
		} else {
			s.sessionRef = r.Mean
		}
	}
	if err := s.start(); err != nil {
		return nil, err
	}
	if err := s.openSession(); err != nil {
		s.close()
		return nil, err
	}
	if s.stream, err = newRequestStream(seed, hot, s.session, sessionG.NumArcs()); err != nil {
		s.close()
		return nil, err
	}
	var sent int
	w := s.drive(nil, func() (request, bool) {
		sent++
		switch {
		case sent <= serveHot:
			return s.stream.hotRequest(sent - 1), true
		case sent <= serveHot+warmupMixed:
			return s.stream.next(), true
		}
		return request{}, false
	})
	if w.failed > 0 {
		s.close()
		return nil, fmt.Errorf("warm-up: %d of %d requests failed; first: %v", w.failed, w.attempted, w.firstErr)
	}
	return s, nil
}

// start serves the server on a loopback listener.
func (s *serveInstance) start() error {
	cfg := serve.Config{Workers: serveWorkers}
	if s.rec != nil {
		cfg.Tracer = s.rec.trace()
	}
	s.srv = serve.NewServer(cfg)
	var handler http.Handler = s.srv
	if s.rec != nil {
		handler = s.timed(s.srv)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	s.base = "http://" + ln.Addr().String()
	s.httpSrv = &http.Server{Handler: handler}
	s.served = make(chan error, 1)
	go func() { s.served <- s.httpSrv.Serve(ln) }()
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, DisableCompression: true,
	}}
	return nil
}

// close shuts the server down and waits for it to stop.
func (s *serveInstance) close() {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.httpSrv.Shutdown(ctx) // an unfinished handler is abandoned with the process
	<-s.served
}

// timed records a serve.handler span around Server.ServeHTTP for every
// request that names its operation. A delta's handler time also feeds
// serve.delta_elapsed_ms: DeltaResult.elapsed_ms reads 0, because
// applyDelta assigns it in a deferred call after the result is returned.
func (s *serveInstance) timed(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		op, err := strconv.Atoi(r.Header.Get(opHeader))
		if err != nil {
			return
		}
		s.rec.add(handlerSpan, op, start, end)
		if strings.HasSuffix(r.URL.Path, "/deltas") {
			s.mu.Lock()
			s.deltaElapsed = append(s.deltaElapsed, float64(end.Sub(start))/1e6)
			s.mu.Unlock()
		}
	})
}

func (s *serveInstance) post(path string, body []byte, op int) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if op >= 0 {
		req.Header.Set(opHeader, strconv.Itoa(op))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// openSession creates the certified session and checks its first answer.
func (s *serveInstance) openSession() error {
	text, err := render(s.sessionG)
	if err != nil {
		return err
	}
	body, err := json.Marshal(serve.SessionCreateRequest{Text: string(text), Certify: true})
	if err != nil {
		return err
	}
	status, out, err := s.post("/v1/session", body, -1)
	if err != nil {
		return fmt.Errorf("create session: %w", err)
	}
	var resp serve.SessionCreateResponse
	if status != http.StatusOK || json.Unmarshal(out, &resp) != nil {
		return fmt.Errorf("create session: status %d: %s", status, out)
	}
	if err := checkValue(resp.Result.OK, resp.Result.Certified, resp.Result.Value, s.sessionRef); err != nil {
		return fmt.Errorf("session's first solve: %w", err)
	}
	s.session = resp.SessionID
	return nil
}

// checkValue checks a served answer against a reference.
func checkValue(ok, certified bool, v *serve.RatValue, ref numeric.Rat) error {
	got, valid := ratOf(v)
	if !ok || !certified || !valid || !got.Equal(ref) {
		return fmt.Errorf("%w: ok %t, certified %t, got %v, reference %v", errWrongAnswer, ok, certified, got, ref)
	}
	return nil
}

// ratOf converts a served value; ok is false for a missing or malformed one.
func ratOf(v *serve.RatValue) (numeric.Rat, bool) {
	if v == nil || v.Den <= 0 {
		return numeric.Rat{}, false
	}
	return numeric.NewRat(v.Num, v.Den), true
}

// do sends one request as operation op and checks its answer.
func (s *serveInstance) do(op int, r request) error {
	if r.kind == kindDelta {
		s.mu.Lock()
		for s.deltasDone != r.seq {
			s.cond.Wait()
		}
		s.mu.Unlock()
		defer func() {
			s.mu.Lock()
			s.deltasDone++
			s.cond.Broadcast()
			s.mu.Unlock()
		}()
	}
	sent := time.Now()
	status, out, err := s.post(r.path, r.body, op)
	if s.rec != nil {
		s.rec.add(rootSpan, op, sent, time.Now())
	}
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
			s.mu.Lock()
			s.rejected++
			s.mu.Unlock()
		}
		return fmt.Errorf("%s: status %d", r.path, status)
	}
	if r.kind == kindDelta {
		return s.checkDelta(r, out)
	}
	var resp serve.SolveResponse
	if err := json.Unmarshal(out, &resp); err != nil || len(resp.Results) != 1 {
		return fmt.Errorf("%w: malformed solve response: %.200s", errWrongAnswer, out)
	}
	res := resp.Results[0]
	s.mu.Lock()
	s.graphElapsed = append(s.graphElapsed, res.ElapsedMillis)
	s.mu.Unlock()
	if r.kind == kindHot {
		return checkValue(res.OK, res.Certified, res.Value, s.refs[r.hot])
	}
	v, ok := ratOf(res.Value)
	if !res.OK || !res.Certified || !ok {
		return fmt.Errorf("%w: perturbed solve: ok %t, certified %t, error %v", errWrongAnswer, res.OK, res.Certified, res.Error)
	}
	if r.seq%perturbCheckEvery == 0 {
		s.mu.Lock()
		s.perturbed = append(s.perturbed, perturbedAnswer{r.hot, r.arc, r.weight, v})
		s.mu.Unlock()
	}
	return nil
}

// checkDelta reads a delta stream's one result line and logs it for replay.
func (s *serveInstance) checkDelta(r request, out []byte) error {
	var res serve.DeltaResult
	line, _, _ := bufio.NewReader(bytes.NewReader(out)).ReadLine()
	if err := json.Unmarshal(line, &res); err != nil {
		return fmt.Errorf("%w: malformed delta response: %.200s", errWrongAnswer, out)
	}
	v, ok := ratOf(res.Value)
	ok = ok && res.OK && res.Applied && res.Certified
	s.mu.Lock()
	s.deltaLog = append(s.deltaLog, deltaAnswer{r.delta, r.wantID, v, ok})
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: delta %d (%s): ok %t, applied %t, certified %t, error %v",
			errWrongAnswer, r.seq, r.delta.Op, res.OK, res.Applied, res.Certified, res.Error)
	}
	if r.delta.Op == "insert-arc" && res.ID != r.wantID {
		return fmt.Errorf("%w: insert %d got arc ID %d, want %d", errWrongAnswer, r.seq, res.ID, r.wantID)
	}
	return nil
}

// phase is what one load phase observed.
type phase struct {
	window
	elapsed time.Duration
	// late holds, in ms, how late the generator sent each request (see
	// drive); maxOutstanding is the most requests due and not yet answered.
	late           []float64
	maxOutstanding int
}

// drive sends requests from next, called under s.mu, on `clients`
// goroutines until it reports none left. With arrivals (offsets from the
// phase start) the phase is an open loop of len(arrivals) requests: each is
// sent when due, or as soon as a client is free if that is later, and its
// latency runs from when it was due. Without, it is a closed loop: each
// client sends its next request as soon as the last is answered.
func (s *serveInstance) drive(arrivals []time.Duration, next func() (request, bool)) phase {
	start := time.Now()
	var taken int // guarded by s.mu
	var answered atomic.Int64
	parts := make([]phase, clients)
	var wg sync.WaitGroup
	for c := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := &parts[c]
			for {
				s.mu.Lock()
				i, op := taken, s.nextOp
				ok := arrivals == nil || i < len(arrivals)
				var r request
				if ok {
					r, ok = next()
				}
				if ok {
					taken++
					s.nextOp++
				}
				s.mu.Unlock()
				if !ok {
					return
				}
				free := time.Now() // this client is free for request i
				due := free
				if arrivals != nil {
					due = start.Add(arrivals[i])
					sleepUntil(due)
					// The generator is late by how long after the request was
					// due, or after a client was free for it, it went out:
					// waiting for a free client is the server's backlog.
					sent := time.Now()
					p.late = append(p.late, float64(sent.Sub(laterOf(due, free)))/1e6)
					dueNow, _ := slices.BinarySearch(arrivals, sent.Sub(start))
					p.maxOutstanding = max(p.maxOutstanding, dueNow-int(answered.Load()))
				}
				err := s.do(op, r)
				p.record(time.Since(due), err)
				answered.Add(1)
			}
		}()
	}
	wg.Wait()
	out := phase{elapsed: time.Since(start)}
	for _, p := range parts {
		out.merge(p.window)
		out.late = append(out.late, p.late...)
		out.maxOutstanding = max(out.maxOutstanding, p.maxOutstanding)
	}
	return out
}

// spinWindow is how close to a due time sleepUntil stops sleeping. When
// the process is idle the Go runtime sleeps in whole milliseconds, so
// time.Sleep alone sent requests 0.5 ms late on average, and that slack
// would sit in every open-loop latency.
const spinWindow = 1500 * time.Microsecond

// sleepUntil returns at t: it sleeps until shortly before, then yields the
// processor until t arrives.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

func laterOf(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// openLoop offers Poisson arrivals at rate per second for d.
func (s *serveInstance) openLoop(rate float64, d time.Duration) phase {
	return s.drive(poissonArrivals(s.arrivals, rate, d), func() (request, bool) { return s.stream.next(), true })
}

// closedLoop keeps every client busy for d.
func (s *serveInstance) closedLoop(d time.Duration) phase {
	end := time.Now().Add(d)
	return s.drive(nil, func() (request, bool) {
		if time.Now().After(end) {
			return request{}, false // draw no request that will not be sent
		}
		return s.stream.next(), true
	})
}

// measure runs three phases: an open loop at loRate for half of d, an open
// loop at hiRate for a quarter, and a closed-loop saturation phase for the
// rest. The rates, not minOps, set the sample counts: a 25 s window gives
// about 1250 samples at each rate.
func (s *serveInstance) measure(d time.Duration, _ int) (window, error) {
	cache0, _ := s.srv.CacheStats()
	_, sess0 := s.srv.SessionStats()
	dyn0, err := s.dynStats()
	if err != nil {
		return window{}, err
	}
	s.mu.Lock()
	s.graphElapsed, s.deltaElapsed, s.rejected = nil, nil, 0
	s.mu.Unlock()

	lo := s.openLoop(loRate, d/2)
	hi := s.openLoop(hiRate, d/4)
	sat := s.closedLoop(d / 4)

	cache1, _ := s.srv.CacheStats()
	_, sess1 := s.srv.SessionStats()
	dyn1, err := s.dynStats()
	if err != nil {
		return window{}, err
	}
	// Latency comes from the lo phase; every phase's operations count.
	w := lo.window
	w.latencyHi = hi.latency
	for _, p := range []phase{hi, sat} {
		w.attempted += p.attempted
		w.failed += p.failed
		w.wrong += p.wrong
		w.firstErr = cmp.Or(w.firstErr, p.firstErr)
	}
	w.throughput = float64(sat.attempted-sat.failed) / sat.elapsed.Seconds()

	// Generator lateness pools both open-loop phases: at loRate alone a
	// traced run's half window holds too few samples for p99.
	late, _ := percentile(append(lo.late, hi.late...), 0.99)
	hitRatio := func(hits, misses float64) float64 { return frac(hits, hits+misses) }
	s.mu.Lock()
	defer s.mu.Unlock()
	s.layerValues = map[string]float64{
		"servecache.hit_ratio":        hitRatio(float64(cache1.Hits-cache0.Hits), float64(cache1.Misses-cache0.Misses)),
		"servecache.merges":           float64(cache1.Singleflight - cache0.Singleflight),
		"servecache.evictions":        float64(cache1.Evictions - cache0.Evictions),
		"core.session_warm_hit_ratio": hitRatio(float64(sess1.WarmHits-sess0.WarmHits), float64(sess1.WarmMisses-sess0.WarmMisses)),
		"core.dyn_warm_hit_ratio":     hitRatio(float64(dyn1.WarmHits-dyn0.WarmHits), float64(dyn1.WarmMisses-dyn0.WarmMisses)),
		"serve.graph_elapsed_ms":      mean(s.graphElapsed),
		"serve.delta_elapsed_ms":      mean(s.deltaElapsed),
		"serve.rejected":              float64(s.rejected),
		"loadgen.late_p99_ms":         late,
		"loadgen.max_outstanding":     float64(max(lo.maxOutstanding, hi.maxOutstanding)),
	}
	return w, nil
}

// dynStats reads the session engine's counters from GET /v1/session/{id}.
func (s *serveInstance) dynStats() (core.DynStats, error) {
	resp, err := s.client.Get(s.base + "/v1/session/" + s.session)
	if err != nil {
		return core.DynStats{}, fmt.Errorf("session stats: %w", err)
	}
	defer resp.Body.Close()
	var info serve.SessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil || resp.StatusCode != http.StatusOK {
		return core.DynStats{}, fmt.Errorf("session stats: status %d: %v", resp.StatusCode, err)
	}
	return info.Engine, nil
}

// layers adds the standalone timings on the hot graphs, and decode time,
// to what measure recorded. The server decodes each /v1/solve body itself,
// so decode is timed on its own on the hot graphs' text and charged to the
// solve requests' share of the operations.
func (s *serveInstance) layers() map[string]float64 {
	m := standalone(s.hot, prep.Mean)
	s.mu.Lock()
	for k, v := range s.layerValues {
		m[k] = v
	}
	solves := float64(len(s.graphElapsed))
	s.mu.Unlock()
	var decode time.Duration
	for _, text := range s.stream.hotText {
		t0 := time.Now()
		if _, err := graph.Read(bytes.NewReader(text)); err != nil {
			panic(err) // rendered by graph.Write moments ago
		}
		decode += time.Since(t0)
	}
	if s.rec != nil {
		lt := s.rec.reduce()
		total := float64(decode) / float64(len(s.stream.hotText)) * solves
		m["graph.decode_ms"] = frac(total/1e6, float64(lt.ops))
		m["graph.decode_share"] = frac(total, float64(lt.opTime))
	}
	return m
}

// verify re-solves one in perturbCheckEvery perturbed graphs, and replays
// the session's deltas on a local graph.DynamicGraph, comparing every
// replayCheckEvery-th answer and the last with a fresh solve. Both use
// certified Madani, a different engine from the server's Howard.
func (s *serveInstance) verify() (int, error) {
	madani := mustMean("madani")
	wrong := 0
	for _, p := range s.perturbed {
		arcs := slices.Clone(s.hot[p.hot].Arcs())
		arcs[p.arc].Weight = p.weight
		r, err := core.MinimumCycleMean(graph.FromArcs(serveN, arcs), madani, core.Options{Certify: true})
		if err != nil {
			return 0, fmt.Errorf("re-solve perturbed graph: %w", err)
		}
		if !r.Mean.Equal(p.value) {
			wrong++
		}
	}
	n, err := replay(s.sessionG, s.deltaLog)
	if err != nil {
		return 0, err
	}
	wrong += n
	return wrong, nil
}

// replay applies the session's deltas to its initial graph g and returns
// how many of the compared answers disagree with a fresh certified solve.
func replay(g *graph.Graph, log []deltaAnswer) (int, error) {
	madani := mustMean("madani")
	dyn := graph.NewDynamic(g)
	wrong := 0
	for i, d := range log {
		arc := graph.ArcID(d.delta.Arc)
		var err error
		switch d.delta.Op {
		case "set-weight":
			err = dyn.SetWeight(arc, d.delta.Weight)
		case "insert-arc":
			var id graph.ArcID
			id, err = dyn.InsertArc(graph.NodeID(d.delta.From), graph.NodeID(d.delta.To), d.delta.Weight, 1)
			if err == nil && int64(id) != d.wantID {
				err = fmt.Errorf("replayed insert got arc %d, want %d", id, d.wantID)
			}
		case "delete-arc":
			err = dyn.DeleteArc(arc)
		}
		if err != nil {
			return 0, fmt.Errorf("replay delta %d: %w", i, err)
		}
		if (i+1)%replayCheckEvery != 0 && i != len(log)-1 {
			continue
		}
		m, _ := dyn.Materialize()
		r, err := core.MinimumCycleMean(m, madani, core.Options{Certify: true})
		if err != nil {
			return 0, fmt.Errorf("solve replayed graph after delta %d: %w", i, err)
		}
		if !d.ok || !r.Mean.Equal(d.value) {
			wrong++
		}
	}
	return wrong, nil
}
