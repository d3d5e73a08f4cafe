#!/usr/bin/env bash
# Builds and runs the placement-service benchmark from the repository
# root (the checkout under test):
#
#   bash perfbench/run.sh --workload online-cold --seed 1 --seconds 10 --trace 0
#
# Every build product, the Go build cache included, stays in
# .bench_build/ inside the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
