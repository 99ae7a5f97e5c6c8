#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. Every
# file the Go toolchain writes (build cache, binary) goes under
# .bench_build/ at the repository root, and the program's own output under
# benchmark/out/; nothing outside the checkout is written.
#
#   bash benchmark/run.sh --workload small_bin --seed 1 --seconds 24 --trace 0
#   bash benchmark/run.sh -dry            # names only, no measurement
#   bash benchmark/run.sh -repeat 10      # two sets of ten runs, checked against the bounds
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOFLAGS="-mod=mod"
export GOTOOLCHAIN=local
export GOPROXY=off

# The module imports accelcloud/internal/... through `replace accelcloud => ../`,
# so the build fails (and this script exits non-zero) anywhere but in a
# checkout of the repository.
go build -C "$here" -buildvcs=false -o "$build/benchmark" .

BENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export BENCH_COMMIT

cd "$root"
exec "$build/benchmark" "$@"
