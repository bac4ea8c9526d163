#!/usr/bin/env bash
# Entry point of BENCHMARK.json's command: build the benchmark from source
# inside the checkout, then run it with the driver's arguments.
#
# Everything the Go toolchain writes — build cache, module cache, temporary
# files, the binary — goes under .bench_build/ in the checkout, so the
# benchmark reads and writes nothing outside it. Rebuilding an unchanged tree
# is a cache hit and takes well under a second.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local

go build -o "$build/optimus-benchmark" ./benchmark
exec "$build/optimus-benchmark" "$@"
