#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, e.g.:
#
#   bash perfbench/run.sh --workload handshake-p1 --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. The build cache and binary live under
# .bench_build/ in the checkout; nothing is fetched (the module has no
# dependencies outside the repository).
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
