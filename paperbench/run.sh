#!/usr/bin/env bash
# Builds the paper-reproduction benchmark from this checkout and runs it.
# Run from the repository root; arguments go to the benchmark, e.g.
#   bash paperbench/run.sh --workload vm-latency --seed 42 --seconds 25 --trace 0
# Build outputs and the Go build cache stay under .bench_build/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=-mod=mod

(cd "$root/paperbench" && go build -o "$build/paperbench" .)
exec "$build/paperbench" "$@"
