#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds and runs the benchmark
# with everything the Go tool writes (build cache, temporary build
# directory, its own counters and module cache) kept in .bench_build/
# inside the checkout, so a run writes nothing outside it. All arguments
# pass through to the program.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
# go run stamps no VCS revision; the driver's checkout is not a repository.
export BENCH_COMMIT="$(git -C "$here" describe --always --dirty 2>/dev/null || echo unknown)"
cd "$here"
exec go run . "$@"
