// Command mcmd is the batch solve daemon: an HTTP/JSON service answering
// minimum (and maximum) cycle mean and cost-to-time ratio queries over the
// solver stack, with per-request deadlines, bounded-queue backpressure, a
// warm-started session cache for repeat topologies, stateful incremental
// sessions (/v1/session: stream graph deltas, get updated λ* per edit), and
// live observability (/debug/vars metrics, /debug/pprof profiling) on the
// same listener.
//
// Examples:
//
//	mcmd -addr :8355
//	mcmd -addr :8355 -workers 8 -queue 64 -timeout 10s
//	curl -s localhost:8355/v1/solve -d '{"requests":[{"text":"p mcm 2 2\na 1 2 3\na 2 1 5\n"}]}'
//	curl -s localhost:8355/v1/solve -d '{"requests":[{"text":"...","algorithm":"approx","approx_epsilon":0.01}]}'
//
// SIGTERM or SIGINT drains: new requests answer 503 while every accepted
// batch runs to completion (bounded by -drain-timeout), then the process
// exits 0. docs/SERVING.md documents the API and operational semantics.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", ":8355", "listen address")
		workers      = flag.Int("workers", 0, "concurrent solves (0 = number of CPUs)")
		queue        = flag.Int("queue", 0, "admission queue beyond the workers (0 = 4x workers); overflow answers 429")
		maxBatch     = flag.Int("max-batch", 64, "graphs per buffered request")
		maxStream    = flag.Int("max-stream-batch", 1<<20, "graphs per NDJSON streaming request")
		cacheEntries = flag.Int("cache", 4096, "result cache capacity in stored results (0 disables the cache)")
		maxBody      = flag.Int64("max-body", 8<<20, "request body byte limit")
		timeout      = flag.Duration("timeout", 30*time.Second, "default per-graph solve budget")
		maxTimeout   = flag.Duration("max-timeout", 2*time.Minute, "cap on client-requested budgets")
		retryAfter   = flag.Duration("retry-after", time.Second, "Retry-After hint on 429 responses")
		maxSessions  = flag.Int("max-sessions", 64, "live /v1/session sessions; creation beyond answers 429")
		sessionTTL   = flag.Duration("session-ttl", 10*time.Minute, "idle session lifetime before lazy expiry")
		drainWait    = flag.Duration("drain-timeout", 30*time.Second, "grace period for in-flight solves on shutdown")
		traceEvents  = flag.Bool("trace", false, "log solver events to stderr")
		statsOnDrain = flag.Bool("stats", true, "print session cache stats to stderr on clean shutdown")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	cfg := serve.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		MaxBatch:       *maxBatch,
		MaxStreamBatch: *maxStream,
		CacheEntries:   *cacheEntries,
		NoCache:        *cacheEntries <= 0,
		MaxBodyBytes:   *maxBody,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		RetryAfter:     *retryAfter,
		MaxSessions:    *maxSessions,
		SessionTTL:     *sessionTTL,
	}
	if *traceEvents {
		cfg.Tracer = obs.NewLogTracer(os.Stderr)
	}
	if err := run(ctx, *addr, cfg, *drainWait, *statsOnDrain); err != nil {
		fmt.Fprintln(os.Stderr, "mcmd:", err)
		os.Exit(1)
	}
}

// run serves until ctx is canceled (signal), then drains and exits.
func run(ctx context.Context, addr string, cfg serve.Config, drainWait time.Duration, statsOnDrain bool) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return runListener(ctx, ln, cfg, drainWait, statsOnDrain)
}

// Connection limits. A client has ten seconds to send its request headers,
// an idle keep-alive connection closes after two minutes, and the headers
// of one request may total 64 KiB; larger ones get 431. There is no read or
// write timeout, because a /v1/session stream stays open while its client
// sends.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	maxHeaderBytes    = 64 << 10
)

// newHTTPServer is the daemon's HTTP server around h, with the connection
// limits set.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
}

// runListener serves on an existing listener. Split from run so tests can
// bind an ephemeral port themselves and drive the full signal-to-drain
// lifecycle with their own context.
func runListener(ctx context.Context, ln net.Listener, cfg serve.Config, drainWait time.Duration, statsOnDrain bool) error {
	srv := serve.NewServer(cfg)
	httpServer := newHTTPServer(srv)
	fmt.Fprintf(os.Stderr, "mcmd: serving on http://%s (solve: POST /v1/solve, sessions: POST /v1/session, metrics: /debug/vars, pprof: /debug/pprof/)\n", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpServer.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	// Drain: refuse new work, let accepted work finish, then close the
	// listener. Order matters — the serve layer flips to 503 first so
	// clients see backpressure rather than connection resets.
	fmt.Fprintln(os.Stderr, "mcmd: draining...")
	drainCtx, cancel := context.WithTimeout(context.Background(), drainWait)
	defer cancel()
	drainErr := srv.Drain(drainCtx)
	shutdownErr := httpServer.Shutdown(drainCtx)
	if shutdownErr != nil && !errors.Is(shutdownErr, context.DeadlineExceeded) {
		drainErr = errors.Join(drainErr, shutdownErr)
	}
	if drainErr != nil {
		return drainErr
	}
	if statsOnDrain {
		plain, certified := srv.SessionStats()
		fmt.Fprintf(os.Stderr, "mcmd: drained clean; session cache: plain %+v, certified %+v\n", plain, certified)
	}
	return nil
}
