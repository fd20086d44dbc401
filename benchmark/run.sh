#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it; every
# argument passes through. Run it from the repository root:
#
#   bash benchmark/run.sh --workload fsync-n10-cold --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the benchmark's scratch files all
# live under $CARGO_TARGET_DIR (default .bench_build), so nothing is
# written outside the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off

go build -C benchmark -o "$out/benchmark" .
exec "$out/benchmark" -work "$out/work" "$@"
