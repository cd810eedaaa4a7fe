#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the harness from source into
# .bench_build/ — Go's build cache and temp files included, so nothing is
# written outside the checkout — and runs it with the driver's arguments:
#
#   bash benchmark/run.sh --workload steady_mix --seed 1 --seconds 15 --trace 0
#
# `go run ./benchmark` does the same with the toolchain's default cache.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/whirlload" ./benchmark
exec "$build/whirlload" "$@"
