#!/usr/bin/env bash
# Builds the serving benchmark from the checkout it is run in and runs
# it with the given arguments. Run from the repository root:
#   bash servebench/run.sh --workload walk --seed 1 --seconds 20 --trace 0
# Build outputs and the Go build cache stay under .bench_build/.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "$0")" && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" \
  GOPATH="$build/gopath" GOTOOLCHAIN=local GOENV=off GOFLAGS=-mod=readonly GOWORK=off
SERVEBENCH_GIT_SHA="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
export SERVEBENCH_GIT_SHA
(cd "$here" && go build -o "$build/servebench" .)
exec "$build/servebench" "$@"
