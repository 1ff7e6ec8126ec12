#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash benchmark/run.sh --workload sim-persist --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and every temporary file stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off CGO_ENABLED=0

(cd "$root/benchmark" && go build -o "$build/cwsp-benchmark" .) >&2
exec "$build/cwsp-benchmark" -work-dir "$build" "$@"
