#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the build and the run write (Go build cache, temp files, the
# binary, staged matrices) stays under .bench_build/ and bench/out/.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off
(cd "$root/bench" && go build -o "$build/pselinv-bench" .)
cd "$root"
exec "$build/pselinv-bench" "$@"
