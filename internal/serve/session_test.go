package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/numeric"
)

// deltaStream is a full-duplex NDJSON client for /v1/session/{id}/deltas:
// request lines go down a pipe while response lines are decoded as they
// arrive, exactly the interleaving a long-lived session client performs.
type deltaStream struct {
	w    *io.PipeWriter
	dec  *json.Decoder
	resp *http.Response
}

func openDeltaStream(t testing.TB, ts *httptest.Server, id string) *deltaStream {
	t.Helper()
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/session/"+id+"/deltas", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("delta stream: status %d: %s", resp.StatusCode, body)
	}
	st := &deltaStream{w: pw, dec: json.NewDecoder(resp.Body), resp: resp}
	t.Cleanup(func() { st.close() })
	return st
}

func (st *deltaStream) close() {
	st.w.Close()
	st.resp.Body.Close()
}

// send writes one delta line; read decodes the next response line.
func (st *deltaStream) send(t testing.TB, dr DeltaRequest) {
	t.Helper()
	data, err := json.Marshal(dr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.w.Write(append(data, '\n')); err != nil {
		t.Fatal(err)
	}
}

func (st *deltaStream) read(t testing.TB) json.RawMessage {
	t.Helper()
	var raw json.RawMessage
	if err := st.dec.Decode(&raw); err != nil {
		t.Fatalf("reading stream line: %v", err)
	}
	return raw
}

// roundTrip sends one delta and decodes its (non-trailer) result.
func (st *deltaStream) roundTrip(t testing.TB, dr DeltaRequest) DeltaResult {
	t.Helper()
	st.send(t, dr)
	raw := st.read(t)
	var probe struct {
		Done bool `json:"done"`
	}
	if json.Unmarshal(raw, &probe) == nil && probe.Done {
		t.Fatalf("expected a DeltaResult line, got trailer: %s", raw)
	}
	var res DeltaResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("undecodable DeltaResult: %v\n%s", err, raw)
	}
	return res
}

// readTrailer decodes the terminal frame.
func (st *deltaStream) readTrailer(t testing.TB) SessionTrailer {
	t.Helper()
	raw := st.read(t)
	var tr SessionTrailer
	if err := json.Unmarshal(raw, &tr); err != nil || !tr.Done {
		t.Fatalf("expected trailer, got: %s", raw)
	}
	return tr
}

// createSession posts a session create request and decodes the response.
func createSession(t testing.TB, ts *httptest.Server, body SessionCreateRequest) SessionCreateResponse {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/session", "application/json", ioReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create session: status %d: %s", resp.StatusCode, out)
	}
	var cr SessionCreateResponse
	if err := json.Unmarshal(out, &cr); err != nil {
		t.Fatalf("undecodable create response: %v\n%s", err, out)
	}
	return cr
}

func ioReader(b []byte) io.Reader { return &sliceReader{b: b} }

type sliceReader struct{ b []byte }

func (r *sliceReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.b)
	r.b = r.b[n:]
	return n, nil
}

// sessionMirror tracks the arc content a session should hold, so every
// answer can be checked against a fresh solve of the same content — through
// the HTTP boundary, not the engine's own bookkeeping.
type sessionMirror struct {
	n    int
	arcs map[int64]graph.Arc
	next int64
}

func newSessionMirror(g *graph.Graph) *sessionMirror {
	m := &sessionMirror{n: g.NumNodes(), arcs: map[int64]graph.Arc{}}
	for i, a := range g.Arcs() {
		m.arcs[int64(i)] = a
	}
	m.next = int64(g.NumArcs())
	return m
}

// apply mirrors one delta, returning the ID the server must have assigned.
func (m *sessionMirror) apply(dr DeltaRequest) int64 {
	switch dr.Op {
	case "insert-arc":
		id := m.next
		m.next++
		tr := dr.Transit
		if tr == 0 {
			tr = 1
		}
		m.arcs[id] = graph.Arc{From: graph.NodeID(dr.From), To: graph.NodeID(dr.To), Weight: dr.Weight, Transit: tr}
		return id
	case "delete-arc":
		delete(m.arcs, dr.Arc)
	case "set-weight":
		a := m.arcs[dr.Arc]
		a.Weight = dr.Weight
		m.arcs[dr.Arc] = a
	case "set-transit":
		a := m.arcs[dr.Arc]
		a.Transit = dr.Transit
		m.arcs[dr.Arc] = a
	case "add-node":
		id := int64(m.n)
		m.n++
		return id
	}
	return -1
}

// snapshot builds the canonical graph plus the compact←original arc map.
func (m *sessionMirror) snapshot() (*graph.Graph, map[int64]graph.ArcID) {
	ids := make([]int64, 0, len(m.arcs))
	for id := range m.arcs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	arcs := make([]graph.Arc, len(ids))
	o2c := make(map[int64]graph.ArcID, len(ids))
	for ci, id := range ids {
		arcs[ci] = m.arcs[id]
		o2c[id] = graph.ArcID(ci)
	}
	return graph.FromArcs(m.n, arcs), o2c
}

// check verifies one DeltaResult against a fresh solve of the mirror.
func (m *sessionMirror) check(t *testing.T, label string, res DeltaResult) {
	t.Helper()
	howard, err := core.ByName("howard")
	if err != nil {
		t.Fatal(err)
	}
	snap, o2c := m.snapshot()
	want, werr := core.MinimumCycleMean(snap, howard, core.Options{})
	if werr != nil {
		if res.OK {
			t.Fatalf("%s: session answered %s but fresh solve fails: %v", label, res.Value.Rat, werr)
		}
		return
	}
	if !res.OK {
		t.Fatalf("%s: session failed (%+v) but fresh solve gives %s", label, res.Error, want.Mean)
	}
	got := numeric.NewRat(res.Value.Num, res.Value.Den)
	if got.Num() != want.Mean.Num() || got.Den() != want.Mean.Den() {
		t.Fatalf("%s: session λ* = %s, fresh solve of same content says %s", label, got, want.Mean)
	}
	cyc := make([]graph.ArcID, len(res.Cycle))
	for i, orig := range res.Cycle {
		ci, ok := o2c[int64(orig)]
		if !ok {
			t.Fatalf("%s: cycle references dead/unknown arc %d", label, orig)
		}
		cyc[i] = ci
	}
	if err := snap.ValidateCycle(cyc); err != nil {
		t.Fatalf("%s: invalid witness %v: %v", label, res.Cycle, err)
	}
	if snap.CycleWeight(cyc)*got.Den() != got.Num()*int64(len(cyc)) {
		t.Fatalf("%s: witness does not attain λ*", label)
	}
}

// TestSessionLifecycle drives create → stats → delete → 404 and checks the
// initial solve against a direct core solve.
func TestSessionLifecycle(t *testing.T) {
	g := mustRing(t, 5, 3) // 5-cycle, every weight 3 → λ* = 3
	_, ts := newTestServer(t, Config{Workers: 2})

	cr := createSession(t, ts, SessionCreateRequest{Text: graphText(t, g), Certify: true})
	if cr.SessionID == "" {
		t.Fatal("empty session id")
	}
	if cr.Nodes != 5 || cr.Arcs != 5 {
		t.Fatalf("dims = (%d, %d), want (5, 5)", cr.Nodes, cr.Arcs)
	}
	if !cr.Result.OK || cr.Result.Value.Num != 3 || cr.Result.Value.Den != 1 {
		t.Fatalf("initial solve: %+v", cr.Result)
	}
	if !cr.Result.Certified {
		t.Fatal("certify: true session produced an uncertified initial answer")
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/session/" + cr.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	var info SessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.SessionID != cr.SessionID || info.Nodes != 5 || info.Engine.Solves != 1 {
		t.Fatalf("session info: %+v", info)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/session/"+cr.SessionID, nil)
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}

	resp, err = ts.Client().Get(ts.URL + "/v1/session/" + cr.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete: status %d: %s", resp.StatusCode, body)
	}
	var eb errorResponse
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error.Code != CodeUnknownSession {
		t.Fatalf("get after delete: want %s, got %s", CodeUnknownSession, body)
	}
}

// mustRing builds an n-cycle with constant weight.
func mustRing(t testing.TB, n int, w int64) *graph.Graph {
	t.Helper()
	arcs := make([]graph.Arc, n)
	for i := range arcs {
		arcs[i] = graph.Arc{From: graph.NodeID(i), To: graph.NodeID((i + 1) % n), Weight: w, Transit: 1}
	}
	return graph.FromArcs(n, arcs)
}

// TestSessionDeltaStreamEquivalence streams a scripted mix of weight edits,
// insertions, deletions, and an add-node through the NDJSON endpoint and
// cross-checks every answer (value and witness cycle, in stable original arc
// IDs) against a fresh solve of an independently tracked mirror.
func TestSessionDeltaStreamEquivalence(t *testing.T) {
	g := mustRing(t, 4, 10) // arcs 0..3, λ* = 10
	_, ts := newTestServer(t, Config{Workers: 2})
	cr := createSession(t, ts, SessionCreateRequest{Text: graphText(t, g)})
	mirror := newSessionMirror(g)
	st := openDeltaStream(t, ts, cr.SessionID)

	script := []DeltaRequest{
		{Seq: 1, Op: "set-weight", Arc: 2, Weight: -6},            // cheapen the ring
		{Seq: 2, Op: "insert-arc", From: 1, To: 0, Weight: 1},     // 2-cycle 0→1→0, id 4
		{Seq: 3, Op: "set-weight", Arc: 4, Weight: -9},            // make the 2-cycle optimal
		{Seq: 4, Op: "delete-arc", Arc: 4},                        // back to the ring
		{Seq: 5, Op: "add-node"},                                  // node 4, id echo 4
		{Seq: 6, Op: "insert-arc", From: 3, To: 4, Weight: 0},     // id 5: on no cycle
		{Seq: 7, Op: "insert-arc", From: 4, To: 3, Weight: -40},   // id 6: 2-cycle 3↔4
		{Seq: 8, Op: "set-transit", Arc: 6, Transit: 3},           // transit ignored by mean
		{Seq: 9, Op: "insert-arc", From: 0, To: 0, Weight: -1000}, // id 7: dominant self-loop
		{Seq: 10, Op: "delete-arc", Arc: 7},
	}
	for _, dr := range script {
		res := st.roundTrip(t, dr)
		if res.Seq != dr.Seq || res.Op != dr.Op {
			t.Fatalf("echo mismatch: sent (%d, %s), got (%d, %s)", dr.Seq, dr.Op, res.Seq, res.Op)
		}
		wantID := mirror.apply(dr)
		if !res.Applied {
			t.Fatalf("seq %d (%s): not applied: %+v", dr.Seq, dr.Op, res)
		}
		if res.ID != wantID {
			t.Fatalf("seq %d (%s): assigned id %d, mirror says %d", dr.Seq, dr.Op, res.ID, wantID)
		}
		mirror.check(t, fmt.Sprintf("seq %d (%s)", dr.Seq, dr.Op), res)
	}

	// Clean end of stream: close the write side, read the trailer.
	st.w.Close()
	tr := st.readTrailer(t)
	if tr.Draining || tr.Results != len(script) || tr.OK != len(script) || tr.Errors != 0 {
		t.Fatalf("trailer: %+v", tr)
	}
}

// TestSessionDeltaElapsed checks that every delta result reports its own
// server-side wall clock, rejected deltas included.
func TestSessionDeltaElapsed(t *testing.T) {
	g := mustRing(t, 4, 10)
	_, ts := newTestServer(t, Config{Workers: 2})
	cr := createSession(t, ts, SessionCreateRequest{Text: graphText(t, g), Certify: true})
	st := openDeltaStream(t, ts, cr.SessionID)

	for _, dr := range []DeltaRequest{
		{Seq: 1, Op: "set-weight", Arc: 2, Weight: -6},
		{Seq: 2, Op: "delete-arc", Arc: 99},
	} {
		if res := st.roundTrip(t, dr); res.ElapsedMillis <= 0 {
			t.Errorf("seq %d (%s): elapsed_ms = %v, want > 0: %+v", dr.Seq, dr.Op, res.ElapsedMillis, res)
		}
	}
}

// TestSessionDeltaErrors exercises the typed rejection paths: dead arcs and
// unknown ops answer bad_delta and leave both the stream and the graph
// usable; a malformed line ends the stream with a trailer.
func TestSessionDeltaErrors(t *testing.T) {
	g := mustRing(t, 3, 6)
	_, ts := newTestServer(t, Config{Workers: 2})
	cr := createSession(t, ts, SessionCreateRequest{Text: graphText(t, g)})
	st := openDeltaStream(t, ts, cr.SessionID)

	res := st.roundTrip(t, DeltaRequest{Seq: 1, Op: "delete-arc", Arc: 99})
	if res.Applied || res.Error == nil || res.Error.Code != CodeBadDelta {
		t.Fatalf("dead-arc delete: %+v", res)
	}
	res = st.roundTrip(t, DeltaRequest{Seq: 2, Op: "teleport-arc"})
	if res.Applied || res.Error == nil || res.Error.Code != CodeBadDelta {
		t.Fatalf("unknown op: %+v", res)
	}
	res = st.roundTrip(t, DeltaRequest{Seq: 3, Op: "set-weight", Arc: 0, Weight: -3})
	if !res.OK || res.Value.Num != 3 || res.Value.Den != 1 { // (−3+6+6)/3
		t.Fatalf("recovery delta after rejections: %+v", res)
	}

	// Deleting the whole cycle is a valid edit whose re-solve fails typed.
	for i, id := range []int64{0, 1, 2} {
		res = st.roundTrip(t, DeltaRequest{Seq: 4 + int64(i), Op: "delete-arc", Arc: id})
		if !res.Applied {
			t.Fatalf("delete %d not applied: %+v", id, res)
		}
	}
	if res.OK || res.Error == nil || res.Error.Code != CodeAcyclic {
		t.Fatalf("acyclic graph: %+v", res)
	}

	// Malformed framing is fatal: one error line, then the trailer.
	if _, err := st.w.Write([]byte("{not json\n")); err != nil {
		t.Fatal(err)
	}
	raw := st.read(t)
	var bad DeltaResult
	if err := json.Unmarshal(raw, &bad); err != nil || bad.Error == nil || bad.Error.Code != CodeBadRequest {
		t.Fatalf("malformed line answer: %s", raw)
	}
	// 2 rejections + 3 acyclic re-solves + the malformed line = 6 errors;
	// the recovery set-weight is the lone OK line.
	tr := st.readTrailer(t)
	if tr.Draining || tr.Results != 7 || tr.OK != 1 || tr.Errors != 6 {
		t.Fatalf("trailer after malformed line: %+v", tr)
	}
}

// TestSessionUnknownID asserts 404 unknown_session on every per-session
// route.
func TestSessionUnknownID(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, probe := range []struct{ method, path string }{
		{http.MethodGet, "/v1/session/nope"},
		{http.MethodDelete, "/v1/session/nope"},
		{http.MethodPost, "/v1/session/nope/deltas"},
	} {
		req, _ := http.NewRequest(probe.method, ts.URL+probe.path, nil)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s: status %d: %s", probe.method, probe.path, resp.StatusCode, body)
		}
	}
}

// TestSessionAcyclicSeedIsRepairable: a session whose seed graph has no
// cycle is still created (typed error in the initial result) and becomes
// solvable once deltas close a cycle.
func TestSessionAcyclicSeedIsRepairable(t *testing.T) {
	g := graph.FromArcs(2, []graph.Arc{{From: 0, To: 1, Weight: 4, Transit: 1}})
	_, ts := newTestServer(t, Config{Workers: 1})
	cr := createSession(t, ts, SessionCreateRequest{Text: graphText(t, g)})
	if cr.Result.OK || cr.Result.Error == nil || cr.Result.Error.Code != CodeAcyclic {
		t.Fatalf("acyclic seed: %+v", cr.Result)
	}
	st := openDeltaStream(t, ts, cr.SessionID)
	res := st.roundTrip(t, DeltaRequest{Op: "insert-arc", From: 1, To: 0, Weight: 2})
	if !res.OK || res.Value.Num != 3 || res.Value.Den != 1 {
		t.Fatalf("after closing the cycle: %+v", res)
	}
}

// TestSessionLimitAndExpiry: the MaxSessions cap answers 429 session_limit
// with Retry-After, and idle sessions past SessionTTL are lazily expired,
// freeing capacity without any background reaper.
func TestSessionLimitAndExpiry(t *testing.T) {
	g := mustRing(t, 3, 1)
	_, ts := newTestServer(t, Config{Workers: 1, MaxSessions: 2, SessionTTL: 80 * time.Millisecond})

	a := createSession(t, ts, SessionCreateRequest{Text: graphText(t, g)})
	createSession(t, ts, SessionCreateRequest{Text: graphText(t, g)})

	data, _ := json.Marshal(SessionCreateRequest{Text: graphText(t, g)})
	resp, err := ts.Client().Post(ts.URL+"/v1/session", "application/json", ioReader(data))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third session: status %d: %s", resp.StatusCode, body)
	}
	var eb errorResponse
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error.Code != CodeSessionLimit {
		t.Fatalf("third session error: %s", body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("session_limit response missing Retry-After")
	}

	// Past the TTL both idle sessions expire lazily on the next create.
	time.Sleep(120 * time.Millisecond)
	cr := createSession(t, ts, SessionCreateRequest{Text: graphText(t, g)})
	if cr.SessionID == a.SessionID {
		t.Fatal("expired session id reused")
	}
	resp, err = ts.Client().Get(ts.URL + "/v1/session/" + a.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("expired session still answers: status %d", resp.StatusCode)
	}
}

// TestSessionDrainTerminalFrame is the shutdown-lifecycle regression test:
// an open delta stream must receive a clean terminal frame with
// "draining": true when the server drains, and Drain must return promptly
// instead of wedging on the long-lived connection.
func TestSessionDrainTerminalFrame(t *testing.T) {
	g := mustRing(t, 4, 2)
	s, ts := newTestServer(t, Config{Workers: 2})
	cr := createSession(t, ts, SessionCreateRequest{Text: graphText(t, g)})
	st := openDeltaStream(t, ts, cr.SessionID)

	// Prove the stream is live (and therefore registered in-flight) before
	// draining.
	res := st.roundTrip(t, DeltaRequest{Op: "set-weight", Arc: 0, Weight: 5})
	if !res.OK {
		t.Fatalf("pre-drain delta: %+v", res)
	}

	drainErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drainErr <- s.Drain(ctx)
	}()

	// The open stream — idle, no delta in flight — must terminate with the
	// draining trailer on its own.
	tr := st.readTrailer(t)
	if !tr.Draining {
		t.Fatalf("trailer not marked draining: %+v", tr)
	}
	if tr.Results != 1 || tr.OK != 1 {
		t.Fatalf("trailer miscounts pre-drain traffic: %+v", tr)
	}
	if err := <-drainErr; err != nil {
		t.Fatalf("drain wedged on an open session stream: %v", err)
	}

	// Post-drain: new session work answers 503 like everything else.
	data, _ := json.Marshal(SessionCreateRequest{Text: graphText(t, g)})
	resp, err := ts.Client().Post(ts.URL+"/v1/session", "application/json", ioReader(data))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("create during drain: status %d", resp.StatusCode)
	}
}

// TestSessionDoesNotTouchResultCache is the cache-invalidation regression
// test (the staleness half and the poisoning half):
//
//   - Staleness: after a delta, the session's answer must be freshly solved
//     — a cached entry stored for the seed content's fingerprint must never
//     be served for the mutated graph.
//   - Poisoning: session solves must never be stored in the
//     content-addressed cache, even when a delta stream returns the graph to
//     byte-identical seed content; /v1/solve's cache counters must not move.
func TestSessionDoesNotTouchResultCache(t *testing.T) {
	g := mustRing(t, 4, 8) // λ* = 8
	s, ts := newTestServer(t, Config{Workers: 2})
	text := graphText(t, g)

	// Prime the /v1/solve cache: one miss+store, one hit.
	for range 2 {
		status, body := post(t, ts, SolveRequest{Requests: []GraphRequest{{Text: text}}})
		if status != http.StatusOK {
			t.Fatalf("prime: status %d: %s", status, body)
		}
		if res := decodeResults(t, body); !res[0].OK || res[0].Value.Num != 8 {
			t.Fatalf("prime: %+v", res[0])
		}
	}
	primed, enabled := s.CacheStats()
	if !enabled || primed.Misses != 1 || primed.Hits != 1 || primed.Entries != 1 {
		t.Fatalf("priming stats: %+v (enabled %v)", primed, enabled)
	}

	// Same content as the cached entry, now in a session.
	cr := createSession(t, ts, SessionCreateRequest{Text: text})
	if !cr.Result.OK || cr.Result.Value.Num != 8 || cr.Result.Cached {
		t.Fatalf("session initial solve: %+v", cr.Result)
	}
	st := openDeltaStream(t, ts, cr.SessionID)

	// Staleness: the delta changes the answer; serving the seed content's
	// cached λ* = 8 here would be the regression.
	res := st.roundTrip(t, DeltaRequest{Op: "set-weight", Arc: 1, Weight: -12})
	if !res.OK || res.Value.Num != 3 || res.Value.Den != 1 {
		t.Fatalf("post-delta answer stale or wrong (want 3/1): %+v", res)
	}

	// Revert: the session content is again byte-identical to the cached
	// fingerprint. A poisoning implementation would overwrite or re-store
	// the entry; a stale-serving one would skip the solve.
	res = st.roundTrip(t, DeltaRequest{Op: "set-weight", Arc: 1, Weight: 8})
	if !res.OK || res.Value.Num != 8 || res.Value.Den != 1 {
		t.Fatalf("post-revert answer: %+v", res)
	}

	// The cache never heard about any of it.
	after, _ := s.CacheStats()
	if after != primed {
		t.Fatalf("session traffic moved the result cache: before %+v, after %+v", primed, after)
	}

	// And /v1/solve still serves the original entry as a pure hit.
	status, body := post(t, ts, SolveRequest{Requests: []GraphRequest{{Text: text}}})
	if status != http.StatusOK {
		t.Fatalf("post-session solve: status %d", status)
	}
	out := decodeResults(t, body)
	if !out[0].OK || out[0].Value.Num != 8 || !out[0].Cached {
		t.Fatalf("post-session solve not a clean cache hit: %+v", out[0])
	}
	final, _ := s.CacheStats()
	if final.Hits != primed.Hits+1 || final.Misses != primed.Misses || final.Entries != primed.Entries {
		t.Fatalf("post-session stats: %+v, primed %+v", final, primed)
	}
}

// TestSessionVarsBranch checks the /debug/vars "sessions" accounting.
func TestSessionVarsBranch(t *testing.T) {
	g := mustRing(t, 3, 2)
	_, ts := newTestServer(t, Config{Workers: 1})
	cr := createSession(t, ts, SessionCreateRequest{Text: graphText(t, g)})
	st := openDeltaStream(t, ts, cr.SessionID)
	st.roundTrip(t, DeltaRequest{Op: "set-weight", Arc: 0, Weight: 7})
	st.roundTrip(t, DeltaRequest{Op: "delete-arc", Arc: 55}) // typed error
	st.w.Close()
	st.readTrailer(t)

	resp, err := ts.Client().Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var vars struct {
		Sessions map[string]int64 `json:"sessions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	want := map[string]int64{"live": 1, "created": 1, "streams": 1, "deltas": 1, "delta_errors": 1}
	for k, v := range want {
		if vars.Sessions[k] != v {
			t.Fatalf("sessions[%q] = %d, want %d (all: %v)", k, vars.Sessions[k], v, vars.Sessions)
		}
	}
}
