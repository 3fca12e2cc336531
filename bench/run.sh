#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the arguments given. Run from the root:
#
#   bash bench/run.sh --workload cluster-q8-10k --seed 1 --seconds 10 --trace 0
#
# The go tool's caches, temporary files and telemetry counters are kept inside
# the checkout too, so a run writes nowhere else; cgo is off so the build
# needs no C compiler.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local CGO_ENABLED=0

XDG_CONFIG_HOME="$build/config" go build -C "$root/bench" -o "$build/scgnn-bench" .
exec "$build/scgnn-bench" "$@"
