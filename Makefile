# Convenience targets for the DAC'99 minimum-mean-cycle reproduction.

GO ?= go

.PHONY: all build test test-race bench bench-kernel bench-kernel-check bench-serve bench-approx bench-approx-smoke bench-session bench-session-smoke bench-ratio-exact bench-ratio-exact-smoke bench-engines bench-engines-smoke coverage-gate fuzz fuzz-smoke repro repro-quick cover clean trace-gate serve-smoke serve-e2e

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

bench: bench-kernel
	$(GO) test -bench=. -benchmem ./...

# Kernelization sweep: kernelized vs raw solves on chain-heavy and SPRAND
# families plus the Session warm-start workload; records BENCH_kernel.json.
bench-kernel:
	$(GO) run ./cmd/mcmbench -table kernel -progress -json > BENCH_kernel.json
	@echo "wrote BENCH_kernel.json"

# Kernelization floor gate (also run by CI): a fresh quick sweep must keep
# the chain-family and warm-start speedups above the conservative 1.2x floor.
bench-kernel-check:
	./scripts/kernel_bench_check.sh

# Streaming approximation-tier sweep: generator-backed solves on graphs up
# to 4.19M arcs under a measured 64 MiB peak-heap cap, with exact-vs-approx
# time/memory/error comparison; records BENCH_approx.json. Exit 2 on a
# violated cap or error bound.
bench-approx:
	$(GO) run ./cmd/mcmbench -table approx -progress -json > BENCH_approx.json
	@echo "wrote BENCH_approx.json"

# CI smoke variant (also run by CI): one 10^6-arc generated graph streamed
# under the 32 MiB cap with an exact cross-check of the certified bound.
bench-approx-smoke:
	$(GO) run ./cmd/mcmbench -table approx -quick -progress

# Incremental-engine sweep: a 2000-node perturbation stream through one
# DynSession, every answer verified bit-identical to a fresh certified
# solve; records BENCH_session.json. Exit 2 on a λ* mismatch or a total
# speedup below the 2x gate.
bench-session:
	$(GO) run ./cmd/mcmbench -table session-delta -progress -json > BENCH_session.json
	@echo "wrote BENCH_session.json"

# CI smoke variant: reduced graph and stream, same correctness oracle.
bench-session-smoke:
	$(GO) run ./cmd/mcmbench -table session-delta -quick -progress

# Exact-ratio-mode comparison: every certified exact MCR solver (howard,
# lawler, dinkelbach, sternbrocot) timed on the same transit-weighted
# SPRAND instances with ρ* cross-checked bit-identical; records
# BENCH_ratio.json. Exit 2 on any disagreement.
bench-ratio-exact:
	$(GO) run ./cmd/mcmbench -table ratio-exact -progress -json > BENCH_ratio.json
	@echo "wrote BENCH_ratio.json"

# CI smoke variant: reduced sizes, same bit-identical cross-check.
bench-ratio-exact-smoke:
	$(GO) run ./cmd/mcmbench -table ratio-exact -quick -progress

# Post-1999 engine comparison: madani (value iteration) and bhk (tightened
# bisection) raced against the DAC'99-era roster on shared instances, every
# certified λ*/ρ* cross-checked bit-identical; records BENCH_engines.json.
# Exit 2 on any disagreement.
bench-engines:
	$(GO) run ./cmd/mcmbench -table engines-2017 -progress -json > BENCH_engines.json
	@echo "wrote BENCH_engines.json"

# CI smoke variant: reduced sizes, same bit-identical cross-check.
bench-engines-smoke:
	$(GO) run ./cmd/mcmbench -table engines-2017 -quick -progress

# Sustained-load serving suite: cache-on vs cache-off throughput on a
# 90%-repeated workload plus the streaming bounded-memory probe; records
# BENCH_serve.json, then the process-level smoke asserts a conservative
# speedup and live /debug/vars hit counters against two real mcmd daemons.
bench-serve:
	$(GO) run ./cmd/mcmbench -serve-load -load-duration 5s -load-out BENCH_serve.json
	./scripts/serve_bench.sh

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
