#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload suite --seed 42 --seconds 30 --trace 0
#
# Run from the repository root. The binary, the Go build cache, traces and
# records all stay under the build directory ($CARGO_TARGET_DIR, default
# .bench_build), so nothing is written outside the checkout. Without the
# simulator's sources next to perfbench/ the build fails and so does this
# script.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"

export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

(cd perfbench && go build -o "$build/perfbench-bin" .)
exec "$build/perfbench-bin" -out "$build/perfbench" "$@"
