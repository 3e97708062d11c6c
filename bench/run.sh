#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#
#   bash bench/run.sh                                  the whole suite, every metric
#   bash bench/run.sh --workload cold-sep --seed 7 --seconds 12 --trace 0
#
# Everything the build leaves behind (Go build cache, temporary files, the
# binary) stays under .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
