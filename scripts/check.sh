#!/usr/bin/env sh
# check.sh — the repository's single verification entry point.
#
# Runs the full tier-1 gate: formatting, go vet, build, tests with the
# race detector, the perfbench module's unit tests, the invariant-tagged
# test builds, a repeated race-enabled run of the solver-cancellation
# tests, a short fuzz smoke on every fuzz target, the project-specific
# static analyzers (cmd/tdmdlint), a check that the committed
# lockgraph.dot is current, and the request-path allocation gate
# (BENCH_serve.json). Exits non-zero on the first failure.
#
# The script is offline and idempotent: it needs only the go toolchain
# and the module's own source (the module has no external
# dependencies), and it writes nothing outside the go build cache but
# one temporary file (the regenerated lock-order graph), removed on exit.
#
# Usage: scripts/check.sh          (from anywhere inside the repo)
#        make check               (alias)

set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt"
UNFORMATTED=$(gofmt -l .)
if [ -n "$UNFORMATTED" ]; then
    echo "gofmt needed on:" >&2
    echo "$UNFORMATTED" >&2
    exit 1
fi

echo "==> go vet"
go vet ./...

echo "==> go build"
go build ./...

echo "==> go test -race"
go test -race ./...

echo "==> perfbench unit tests"
# perfbench is a nested module, so the root ./... above never reaches
# it; its tests (percentiles, rate windows, the answer checker) are
# offline and take seconds.
go -C perfbench test ./...

echo "==> invariant-tagged tests"
go test -tags tdmdinvariant ./internal/invariant/ ./internal/netsim/ ./internal/placement/

echo "==> cancellation hammer (race, 5 repetitions)"
go test -tags tdmdinvariant -run Cancel -race -count=5 ./internal/placement/

echo "==> shared-instance race hammer (race, 5 repetitions)"
# Concurrent solves on one read-only *netsim.Instance (the service's
# pool does this on every shared problem) must stay deterministic and
# data-race-free under repeated scheduling shuffles.
go test -race -run Concurrent -count=5 ./internal/placement/

echo "==> serve hammer (race, 5 repetitions)"
# The service's admission paths — saturation rejection, request
# coalescing, cache replay, job lifecycle, drain-during-inflight — are
# all cross-goroutine handoffs; hammer them under the race detector.
go test -run Serve -race -count=5 ./internal/serve/ ./cmd/tdmdserve/

echo "==> fuzz smoke (5s per target, auto-discovered)"
# Every Fuzz* function in the repo gets a short smoke run; new fuzz
# targets join the gate by existing, not by being listed here.
scripts/fuzz.sh 5s

echo "==> tdmdlint (13 analyzers incl. solverpurity/detorder/goleak/mapstate/guardedby/lockorder/holdblock + escape diff)"
go run ./cmd/tdmdlint -escape-baseline escape.baseline.json ./...

echo "==> lock-order graph (committed lockgraph.dot is current)"
# The module's lock-acquisition-order graph, regenerated and compared
# with the committed lockgraph.dot that CI archives next to the lint
# JSON. lockorder keeps it acyclic; the committed file makes the
# established order reviewable, and the comparison keeps it from going
# stale. `make locklint` rewrites it.
LOCKGRAPH=$(mktemp)
trap 'rm -f "$LOCKGRAPH"' EXIT
go run ./cmd/tdmdlint -only lockorder -lockgraph "$LOCKGRAPH" ./...
if ! cmp -s "$LOCKGRAPH" lockgraph.dot; then
    echo "lockgraph.dot is stale (make locklint rewrites it):" >&2
    diff lockgraph.dot "$LOCKGRAPH" >&2 || true
    exit 1
fi

echo "==> observability (observer identity + exposition, race)"
go test -race ./internal/obs/
go test -race -run 'Observer|Metrics|Cache' \
    ./internal/placement/ ./internal/netsim/ ./internal/serve/

echo "==> request-path allocation gate (BENCH_serve.json)"
# Two single-request rows (a plan-cache hit and a fresh solve) that run
# in seconds, so every change is checked against the snapshot's
# allocs/op, not only the nightly benchmark job.
scripts/bench.sh -check serve

echo "OK: all checks passed"
