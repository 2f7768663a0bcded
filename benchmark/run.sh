#!/usr/bin/env bash
# The driver's command (BENCHMARK.json): build the benchmark from source
# inside the checkout, then run it with the arguments given. Nothing is read
# or written outside the checkout: the Go build cache and the binary live in
# the build directory (CARGO_TARGET_DIR if the driver set it, .bench_build
# otherwise), scratch arrays under the working directory.
set -euo pipefail
cd "$(dirname "$0")/.."
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache"
go build -o "$build/c56-benchmark" ./benchmark
exec "$build/c56-benchmark" "$@"
