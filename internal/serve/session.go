package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
)

// The stateful session API: a server-side incremental dynamic-graph engine
// (core.DynSession) addressed by session ID, so a client editing one graph
// pays per-delta incremental cost instead of re-shipping and re-solving the
// whole graph on every edit.
//
//	POST   /v1/session              create a session from a graph; answers the
//	                                initial solve
//	POST   /v1/session/{id}/deltas  full-duplex NDJSON delta stream: one
//	                                DeltaRequest per line in, one DeltaResult
//	                                per line out, SessionTrailer last
//	GET    /v1/session/{id}         session stats
//	DELETE /v1/session/{id}         close the session
//
// Sessions deliberately bypass the content-addressed result cache in both
// directions: a delta stream mutates one private graph whose intermediate
// states are exactly the content a fingerprint cache must never serve for a
// different request, and conversely a cached entry keyed on an earlier
// fingerprint must never answer a post-delta query. Session solves go
// straight to the engine; /v1/solve caching is unaffected (see
// TestSessionDoesNotTouchResultCache).
//
// Drain semantics (shared with /v1/solve, see Server.Drain): initiating a
// drain closes drainCh, which every open delta stream selects on. The stream
// stops consuming deltas, emits its terminal SessionTrailer with
// "draining": true, and returns — so SIGTERM never wedges on a long-lived
// connection and the client always sees a clean end-of-stream frame.
//
// docs/SERVING.md documents the wire schema and the error-code table.

// SessionCreateRequest is the body of POST /v1/session. Exactly one of Text
// and Graph must be set; the session always solves the minimum cycle mean
// with Howard's algorithm (warm-started incrementally across deltas).
type SessionCreateRequest struct {
	// Text is the graph in the line format of docs/FORMATS.md.
	Text string `json:"text,omitempty"`
	// Graph is the inline JSON arc-list form; see GraphRequest.Graph.
	Graph json.RawMessage `json:"graph,omitempty"`
	// Certify attaches an exact optimality proof to every answer the
	// session produces (initial solve and every delta).
	Certify bool `json:"certify,omitempty"`
	// DeadlineMillis is the solve budget for the initial solve; 0 means
	// Config.DefaultTimeout. Capped by Config.MaxTimeout.
	DeadlineMillis int64 `json:"deadline_ms,omitempty"`
}

// SessionCreateResponse is the 200 body of POST /v1/session. The session is
// created even when the initial solve fails with a typed per-graph error
// (e.g. an acyclic seed graph): deltas can repair the graph, so the error
// lands in Result.Error instead of failing creation.
type SessionCreateResponse struct {
	SessionID string `json:"session_id"`
	Nodes     int    `json:"nodes"`
	Arcs      int    `json:"arcs"`
	// Result is the initial solve, shaped exactly like a /v1/solve result.
	// Cycle references arc IDs in the submitted order (these stay stable
	// across deltas: deleted IDs are never reused, inserted arcs get fresh
	// ones).
	Result GraphResult `json:"result"`
}

// DeltaRequest is one line of the NDJSON delta stream.
type DeltaRequest struct {
	// Seq is an opaque client tag echoed on the matching DeltaResult;
	// results are answered in order, so it is a convenience, not a need.
	Seq int64 `json:"seq,omitempty"`
	// Op is one of "insert-arc", "delete-arc", "set-weight", "set-transit",
	// "add-node".
	Op string `json:"op"`
	// Arc is the target arc ID for delete-arc / set-weight / set-transit.
	Arc int64 `json:"arc,omitempty"`
	// From and To are the insert-arc endpoints.
	From int64 `json:"from,omitempty"`
	To   int64 `json:"to,omitempty"`
	// Weight is read by insert-arc and set-weight.
	Weight int64 `json:"weight,omitempty"`
	// Transit is read by insert-arc (0 defaults to 1) and set-transit.
	Transit int64 `json:"transit,omitempty"`
	// DeadlineMillis bounds this delta's re-solve; 0 means
	// Config.DefaultTimeout. Capped by Config.MaxTimeout.
	DeadlineMillis int64 `json:"deadline_ms,omitempty"`
}

// toCore validates the wire delta and converts it to the engine form.
func (dr *DeltaRequest) toCore() (core.Delta, *ErrorBody) {
	switch dr.Op {
	case "insert-arc":
		transit := dr.Transit
		if transit == 0 {
			transit = 1
		}
		return core.Delta{Op: core.DeltaInsertArc,
			From: graph.NodeID(dr.From), To: graph.NodeID(dr.To),
			Weight: dr.Weight, Transit: transit}, nil
	case "delete-arc":
		return core.Delta{Op: core.DeltaDeleteArc, Arc: graph.ArcID(dr.Arc)}, nil
	case "set-weight":
		return core.Delta{Op: core.DeltaSetWeight, Arc: graph.ArcID(dr.Arc), Weight: dr.Weight}, nil
	case "set-transit":
		return core.Delta{Op: core.DeltaSetTransit, Arc: graph.ArcID(dr.Arc), Transit: dr.Transit}, nil
	case "add-node":
		return core.Delta{Op: core.DeltaAddNode}, nil
	default:
		return core.Delta{}, &ErrorBody{Code: CodeBadDelta,
			Message: fmt.Sprintf("unknown op %q (want insert-arc, delete-arc, set-weight, set-transit, or add-node)", dr.Op)}
	}
}

// DeltaResult is one line of the NDJSON delta stream response.
type DeltaResult struct {
	// Seq echoes the request line's tag.
	Seq int64 `json:"seq,omitempty"`
	// Op echoes the operation as applied.
	Op string `json:"op,omitempty"`
	// OK means the delta applied and the re-solve produced a value.
	OK bool `json:"ok"`
	// Applied means the graph edit itself took effect, even when the
	// re-solve then failed (e.g. the delta made the graph acyclic). A
	// rejected delta (Error.Code "bad_delta") leaves the graph unchanged.
	Applied bool `json:"applied"`
	// ID is the fresh arc ID assigned by insert-arc, or the fresh node ID
	// assigned by add-node; -1 otherwise.
	ID int64 `json:"id"`
	// Value is the updated λ* when OK.
	Value *RatValue `json:"value,omitempty"`
	// Cycle is a critical cycle in stable original arc IDs.
	Cycle []graph.ArcID `json:"cycle,omitempty"`
	// Certified reports a verified exact optimality proof (sessions created
	// with "certify": true).
	Certified bool `json:"certified,omitempty"`
	// ElapsedMillis is the server-side apply+re-solve wall clock.
	ElapsedMillis float64 `json:"elapsed_ms"`
	// Error is set instead of Value when OK is false.
	Error *ErrorBody `json:"error,omitempty"`
}

// SessionTrailer is the final line of a delta stream: emitted exactly once,
// whether the stream ended because the client closed its write side or
// because the server began draining.
type SessionTrailer struct {
	// Done is always true; no DeltaResult line carries a "done" key.
	Done bool `json:"done"`
	// Draining means the server is shutting down and stopped consuming the
	// stream; deltas already answered were applied, unread ones were not.
	Draining bool `json:"draining,omitempty"`
	// Results counts the DeltaResult lines emitted before the trailer; OK
	// and Errors partition them.
	Results int `json:"results"`
	OK      int `json:"ok"`
	Errors  int `json:"errors"`
	// ElapsedMillis is the whole stream's server-side wall clock.
	ElapsedMillis float64 `json:"elapsed_ms"`
}

// SessionInfo is the body of GET /v1/session/{id}.
type SessionInfo struct {
	SessionID string `json:"session_id"`
	Nodes     int    `json:"nodes"`
	Arcs      int    `json:"arcs"`
	Certify   bool   `json:"certify,omitempty"`
	CreatedAt string `json:"created_at"`
	LastUsed  string `json:"last_used"`
	// Deltas and DeltaErrors count stream lines answered; OpenStreams is
	// the number of delta streams currently attached.
	Deltas      int64 `json:"deltas"`
	DeltaErrors int64 `json:"delta_errors"`
	OpenStreams int32 `json:"open_streams"`
	// Engine exposes the incremental engine's own counters (component
	// re-solves, warm hits, merges, splits, ...).
	Engine core.DynStats `json:"engine"`
}

// sessionEntry is one live session in the registry.
type sessionEntry struct {
	id      string
	certify bool
	created time.Time

	// mu serializes Update calls from concurrent delta streams on the same
	// session; the engine has its own lock, but entry-level serialization
	// keeps the apply→answer pairing of each stream line atomic.
	mu sync.Mutex
	ds *core.DynSession

	lastUsed    atomic.Int64 // unix nanos
	deltas      atomic.Int64
	deltaErrors atomic.Int64
	streams     atomic.Int32
}

func (e *sessionEntry) touch(now time.Time) { e.lastUsed.Store(now.UnixNano()) }

// newSessionID mints a registry-unique ID.
func (s *Server) newSessionID() string {
	return fmt.Sprintf("s%08x", s.sessionSeq.Add(1))
}

// expireSessionsLocked removes idle sessions past Config.SessionTTL; called
// with sessMu held, lazily on create and lookup (no background reaper, so an
// idle Server stays goroutine-free). Sessions with an attached stream never
// expire: the stream keeps touching them.
func (s *Server) expireSessionsLocked(now time.Time) {
	ttl := s.cfg.SessionTTL
	for id, e := range s.sessions {
		if e.streams.Load() > 0 {
			continue
		}
		if now.Sub(time.Unix(0, e.lastUsed.Load())) > ttl {
			delete(s.sessions, id)
			s.metrics.sessionsExpired.Add(1)
		}
	}
}

// lookupSession finds a live session and refreshes its idle clock.
func (s *Server) lookupSession(id string) *sessionEntry {
	now := time.Now()
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	s.expireSessionsLocked(now)
	e := s.sessions[id]
	if e != nil {
		e.touch(now)
	}
	return e
}

// sessionVars renders the /debug/vars "sessions" branch.
func (s *Server) sessionVars() map[string]any {
	s.sessMu.Lock()
	live := len(s.sessions)
	s.sessMu.Unlock()
	return map[string]any{
		"live":         live,
		"created":      s.metrics.sessionsCreated.Load(),
		"closed":       s.metrics.sessionsClosed.Load(),
		"expired":      s.metrics.sessionsExpired.Load(),
		"rejected":     s.metrics.sessionsRejected.Load(),
		"streams":      s.metrics.sessionStreams.Load(),
		"deltas":       s.metrics.sessionDeltas.Load(),
		"delta_errors": s.metrics.sessionDeltaErrors.Load(),
	}
}

// sessionBudget resolves a per-solve budget from a wire deadline.
func (s *Server) sessionBudget(ms int64) time.Duration {
	if ms <= 0 {
		return s.cfg.DefaultTimeout
	}
	d := time.Duration(ms) * time.Millisecond
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

// acquireWorker takes one execution slot, honoring the budget while queued.
func (s *Server) acquireWorker(ctx context.Context) error {
	select {
	case s.workers <- struct{}{}:
		// The select picks at random when both are ready; never start work
		// on a dead budget.
		if err := ctx.Err(); err != nil {
			<-s.workers
			return fmt.Errorf("solve budget expired while queued: %w", err)
		}
		return nil
	case <-ctx.Done():
		return fmt.Errorf("solve budget expired while queued: %w", ctx.Err())
	}
}

// handleSessionCreate is POST /v1/session.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, CodeMethodNotAllowed, "use POST")
		return
	}
	if !s.enter() {
		s.metrics.draining.Add(1)
		writeError(w, CodeDraining, "server is draining")
		return
	}
	defer s.inflight.Done()

	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var req SessionCreateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.metrics.bodyTooLarge.Add(1)
			writeError(w, CodeBodyTooLarge, fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBodyBytes))
			return
		}
		s.metrics.badRequest.Add(1)
		writeError(w, CodeBadRequest, "malformed JSON body: "+err.Error())
		return
	}
	g, errBody := decodeGraph(&GraphRequest{Text: req.Text, Graph: req.Graph})
	if errBody != nil {
		s.metrics.badRequest.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: *errBody})
		return
	}

	opt := s.baseOpt
	opt.Certify = req.Certify
	now := time.Now()
	e := &sessionEntry{certify: req.Certify, created: now, ds: core.NewDynSession(g, opt)}
	e.touch(now)

	s.sessMu.Lock()
	s.expireSessionsLocked(now)
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.sessMu.Unlock()
		s.metrics.sessionsRejected.Add(1)
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
		writeError(w, CodeSessionLimit,
			fmt.Sprintf("session limit of %d reached; close or let sessions expire", s.cfg.MaxSessions))
		return
	}
	e.id = s.newSessionID()
	s.sessions[e.id] = e
	s.sessMu.Unlock()
	s.metrics.sessionsCreated.Add(1)

	// Initial solve: same budget and worker-slot discipline as /v1/solve,
	// but never through the result cache — see the package comment above.
	var res GraphResult
	res.Algorithm = "howard"
	start := time.Now()
	ctx, cancel := context.WithTimeout(r.Context(), s.sessionBudget(req.DeadlineMillis))
	if err := s.acquireWorker(ctx); err != nil {
		res.Error = solveErrorBody(err)
	} else {
		r, err := e.ds.SolveContext(ctx)
		<-s.workers
		if err != nil {
			res.Error = solveErrorBody(err)
		} else {
			fillOutcome(&res, meanOutcome(r), nil)
		}
	}
	cancel()
	res.ElapsedMillis = float64(time.Since(start)) / 1e6

	nodes, arcs := e.ds.Dims()
	writeJSON(w, http.StatusOK, SessionCreateResponse{
		SessionID: e.id,
		Nodes:     nodes,
		Arcs:      arcs,
		Result:    res,
	})
}

// retryAfterSeconds renders a Retry-After header value, rounding up.
func retryAfterSeconds(d time.Duration) string {
	return fmt.Sprintf("%d", int((d+time.Second-1)/time.Second))
}

// handleSessionByID is GET or DELETE /v1/session/{id}.
func (s *Server) handleSessionByID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	switch r.Method {
	case http.MethodGet:
		e := s.lookupSession(id)
		if e == nil {
			writeError(w, CodeUnknownSession, fmt.Sprintf("no session %q", id))
			return
		}
		nodes, arcs := e.ds.Dims()
		writeJSON(w, http.StatusOK, SessionInfo{
			SessionID:   e.id,
			Nodes:       nodes,
			Arcs:        arcs,
			Certify:     e.certify,
			CreatedAt:   e.created.UTC().Format(time.RFC3339Nano),
			LastUsed:    time.Unix(0, e.lastUsed.Load()).UTC().Format(time.RFC3339Nano),
			Deltas:      e.deltas.Load(),
			DeltaErrors: e.deltaErrors.Load(),
			OpenStreams: e.streams.Load(),
			Engine:      e.ds.Stats(),
		})
	case http.MethodDelete:
		s.sessMu.Lock()
		_, ok := s.sessions[id]
		delete(s.sessions, id)
		s.sessMu.Unlock()
		if !ok {
			writeError(w, CodeUnknownSession, fmt.Sprintf("no session %q", id))
			return
		}
		s.metrics.sessionsClosed.Add(1)
		writeJSON(w, http.StatusOK, map[string]any{"session_id": id, "closed": true})
	default:
		writeError(w, CodeMethodNotAllowed, "use GET or DELETE")
	}
}

// handleSessionDeltas is POST /v1/session/{id}/deltas: the full-duplex
// NDJSON delta stream. Each request line applies one delta and answers one
// DeltaResult line immediately (EnableFullDuplex lets the handler interleave
// body reads with response writes on the same connection), so a client can
// hold the stream open indefinitely and pay per-delta incremental latency.
func (s *Server) handleSessionDeltas(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost && r.Method != http.MethodPut {
		writeError(w, CodeMethodNotAllowed, "use POST")
		return
	}
	e := s.lookupSession(r.PathValue("id"))
	if e == nil {
		writeError(w, CodeUnknownSession, fmt.Sprintf("no session %q", r.PathValue("id")))
		return
	}
	if !s.enter() {
		s.metrics.draining.Add(1)
		writeError(w, CodeDraining, "server is draining")
		return
	}
	defer s.inflight.Done()
	e.streams.Add(1)
	defer e.streams.Add(-1)
	defer e.touch(time.Now())
	s.metrics.sessionStreams.Add(1)

	ctx := r.Context()
	rc := http.NewResponseController(w)
	// Full duplex is what makes the stream a conversation instead of a
	// request/response pair; unsupported transports (HTTP/2 already
	// interleaves) just return an error we can ignore.
	_ = rc.EnableFullDuplex()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	w.WriteHeader(http.StatusOK)
	_ = rc.Flush()

	// Reader: one goroutine turns the body into delta lines. Lines are
	// bounded individually (a delta is small); the stream as a whole is
	// deliberately unbounded — it is long-lived by design.
	lines := make(chan []byte)
	done := make(chan struct{})
	defer close(done)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(r.Body)
		sc.Buffer(make([]byte, 0, 4096), maxDeltaLineBytes)
		for sc.Scan() {
			line := append([]byte(nil), sc.Bytes()...)
			select {
			case lines <- line:
			case <-done:
				return
			}
		}
	}()

	enc := json.NewEncoder(w)
	start := time.Now()
	var emitted, okCount, errCount int
	emit := func(dr DeltaResult) bool {
		emitted++
		if dr.Error != nil {
			errCount++
		} else {
			okCount++
		}
		if err := enc.Encode(dr); err != nil {
			return false
		}
		_ = rc.Flush()
		return true
	}
	trailer := func(draining bool) {
		_ = enc.Encode(SessionTrailer{
			Done:          true,
			Draining:      draining,
			Results:       emitted,
			OK:            okCount,
			Errors:        errCount,
			ElapsedMillis: float64(time.Since(start)) / 1e6,
		})
		_ = rc.Flush()
		s.metrics.ok.Add(1)
	}

	for {
		select {
		case line, open := <-lines:
			if !open {
				// Client closed its write side: the normal end of stream.
				trailer(false)
				return
			}
			if len(line) == 0 {
				continue // blank lines are keep-alive noise, not deltas
			}
			var dr DeltaRequest
			if err := json.Unmarshal(line, &dr); err != nil {
				// A malformed line means the client and server disagree on
				// framing; per-delta recovery is not safe, end the stream.
				emit(DeltaResult{ID: -1, Error: &ErrorBody{
					Code:    CodeBadRequest,
					Message: "malformed delta line: " + err.Error(),
				}})
				trailer(false)
				return
			}
			if !emit(s.applyDelta(ctx, e, &dr)) {
				return // connection gone; ctx unwinds everything else
			}
		case <-ctx.Done():
			return // client disconnected; nothing left to write to
		case <-s.drainCh:
			// Shutdown: stop consuming, answer the terminal frame so the
			// client sees a clean end instead of a reset, and let Drain's
			// WaitGroup proceed.
			trailer(true)
			return
		}
	}
}

// maxDeltaLineBytes bounds one NDJSON delta line.
const maxDeltaLineBytes = 1 << 16

// applyDelta converts, applies, and re-solves one delta under the session's
// entry lock, occupying a worker execution slot for the solve — session
// deltas compete with /v1/solve work for the same capacity.
//
// out is a named result so the deferred ElapsedMillis write lands in the
// value returned, not in a local copy.
func (s *Server) applyDelta(ctx context.Context, e *sessionEntry, dr *DeltaRequest) (out DeltaResult) {
	out = DeltaResult{Seq: dr.Seq, Op: dr.Op, ID: -1}
	start := time.Now()
	defer func() {
		out.ElapsedMillis = float64(time.Since(start)) / 1e6
		e.touch(time.Now())
		if out.Error != nil {
			e.deltaErrors.Add(1)
			s.metrics.sessionDeltaErrors.Add(1)
		}
	}()

	dl, errBody := dr.toCore()
	if errBody != nil {
		out.Error = errBody
		return out
	}
	ctx, cancel := context.WithTimeout(ctx, s.sessionBudget(dr.DeadlineMillis))
	defer cancel()
	if err := s.acquireWorker(ctx); err != nil {
		out.Error = solveErrorBody(err)
		return out
	}
	defer func() { <-s.workers }()

	e.mu.Lock()
	ids, res, err := e.ds.Update(ctx, []core.Delta{dl})
	e.mu.Unlock()

	if errors.Is(err, core.ErrBadDelta) {
		out.Error = &ErrorBody{Code: CodeBadDelta, Message: err.Error()}
		return out
	}
	// Past the bad-delta gate the edit itself took effect, even when the
	// re-solve failed (acyclic graph, numeric range, expired budget): the
	// engine holds the delta and re-solves on the next request.
	out.Applied = true
	e.deltas.Add(1)
	s.metrics.sessionDeltas.Add(1)
	if len(ids) > 0 {
		out.ID = ids[0]
	}
	if err != nil {
		out.Error = solveErrorBody(err)
		return out
	}
	out.OK = true
	out.Value = ratValue(res.Mean)
	out.Cycle = res.Cycle
	out.Certified = res.Certificate != nil
	return out
}
