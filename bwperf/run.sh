#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bwperf/run.sh --workload kernels-local --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the span dump go to
# $CARGO_TARGET_DIR (default .bench_build) under the working directory,
# so the run writes nothing outside the checkout.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
abs="$(cd "$out" && pwd)"

export GOCACHE="$abs/gocache"
export GOTMPDIR="$abs/tmp"
export GOPATH="$abs/gopath"
export GOMODCACHE="$abs/gopath/pkg/mod"
export XDG_CONFIG_HOME="$abs/config"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
mkdir -p "$GOTMPDIR"

(cd "$here" && go build -buildvcs=false -trimpath -o "$abs/bwperf" .)
exec "$abs/bwperf" -out "$out" "$@"
