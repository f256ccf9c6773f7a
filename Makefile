# Convenience targets for the DAC'99 minimum-mean-cycle reproduction.

GO ?= go

.PHONY: all build test test-race bench coverage-gate fuzz fuzz-smoke repro repro-quick cover clean trace-gate serve-smoke serve-e2e

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

# Merge gate (also run by CI): the concurrent SCC driver, portfolio
# racing, and pooled workspaces must stay race-clean.
test-race:
	$(GO) test -race ./...

# Every testing.B benchmark. The end-to-end benchmark with medians, layer
# spans and -compare is its own module: bash benchmark/run.sh.
bench:
	$(GO) test -bench=. -benchmem ./...

# Per-package coverage floors (scripts/coverage_floor.txt): fails when any
# package's statement coverage regresses below its checked-in floor. Raise
# floors by hand when a real coverage win lands.
coverage-gate:
	./scripts/coverage_gate.sh

# Differential soak test: every algorithm vs the oracle on random graphs.
fuzz:
	$(GO) run ./cmd/mcmfuzz -duration 30s

# Native coverage-guided fuzzing, 30s per target (same as the CI smoke job).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzGraphRead -fuzztime 30s ./internal/graph
	$(GO) test -run '^$$' -fuzz FuzzSolveDifferential -fuzztime 30s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzApproxDifferential -fuzztime 30s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzKernelEquivalence -fuzztime 30s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzSessionDeltas -fuzztime 30s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzRatioDifferential -fuzztime 30s ./internal/ratio

# Tracing-overhead gate (also run by CI): a disabled tracer must stay
# invisible — zero allocations on the nil-tracer emit path and the solver
# and graph-decode alloc pins unchanged — and the obs event plumbing must
# emit correctly.
trace-gate:
	$(GO) test -run 'TestNilTraceZeroAllocs|TestEmptyTraceZeroAllocs' -count=1 ./internal/obs
	$(GO) test -run 'AllocsPerOpPinned' -count=1 ./internal/core ./internal/ratio ./internal/graph
	$(GO) test -run 'TestTrace' -count=1 ./internal/core ./internal/ratio

# Live-serving smoke: mcmbench -serve must expose non-zero solver counters
# on /debug/vars and mount /debug/pprof/ while a sweep runs.
serve-smoke:
	./scripts/serve_smoke.sh

# Batch-service e2e gate (also run by CI): the race-enabled service and
# daemon test suites (oracle answers, typed errors, 429 backpressure,
# deadline expiry, graceful drain, session stress), then the process-level
# load smoke against a real mcmd under SIGTERM and the stateful-session
# protocol smoke (streamed deltas, stable arc IDs, drain terminal frame).
serve-e2e:
	$(GO) test -race -count=1 ./internal/serve/ ./cmd/mcmd/
	$(GO) test -race -count=1 -run 'TestSessionConcurrentStress|TestSessionSolveContextCancel|TestDynSessionConcurrentStress|TestDynSessionSolveContextCancel' ./internal/core/
	./scripts/load_smoke.sh
	./scripts/session_e2e.sh

# Full Table 2 + every observation table (tens of minutes).
repro:
	$(GO) run ./cmd/mcmbench -table all -verify

# Reduced grid (n <= 2048, 3 seeds): a couple of minutes.
repro-quick:
	$(GO) run ./cmd/mcmbench -table all -quick -verify

cover:
	$(GO) test ./internal/... -coverprofile=cover.out
	$(GO) tool cover -func=cover.out | tail -1

clean:
	rm -f cover.out mcmfuzz-repro.txt test_output.txt bench_output.txt
