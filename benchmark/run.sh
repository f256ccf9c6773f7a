#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it, passing every
# argument on. Run it from the repository root:
#
#   bash benchmark/run.sh -workload mean-sprand -seed 1 -seconds 20 -trace 0
#
# Build outputs, the Go build cache and the toolchain's own state all stay
# under $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/go-cache"
export GOPATH="$out/go-path"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C benchmark build -o "$out/mcm-benchmark" .
exec "$out/mcm-benchmark" "$@"
