#!/usr/bin/env sh
# bench.sh — record or check the repository's benchmark snapshots.
#
# Three suites are registered (cmd/benchsnap):
#
#   solver  BENCH_solver.json  ns/op, B/op and allocs/op for the paired
#           solver benchmarks — the root package's FullVsIncremental
#           pair, the netsim SnapState primitives and instance
#           construction (BenchmarkNewInstance) — all at
#           |V|=200 / |F|≈1500 — the gtp-lazy solve on the
#           bulk-ingest shape scaled to 20k flows
#           (BenchmarkGTPLazyBulkShape), the budgeted gtp and gtp-ls
#           solves on the online-hot shape at k=8
#           (BenchmarkGTPBudget) and the tree DP on online-cold's
#           default tree cell, |V|=22, k=8 (BenchmarkTreeDP).
#   ingest  BENCH_ingest.json  the streaming-ingestion benchmarks
#           (BenchmarkIngest*), including the million-flow scale row;
#           bytes/flow (the wire format's per-flow cost) is gated
#           alongside allocs/op. The ingest check also runs the
#           million-flow end-to-end scale test (TDMD_SCALE=1) first.
#   serve   BENCH_serve.json   single /api/solve requests through the
#           service's HTTP handler (internal/serve BenchmarkServeSolve)
#           on a |V|=200 / |F|=1500 gtp-lazy problem: one plan-cache
#           hit and one fresh solve. Only allocs/op is gated. It takes
#           seconds, so scripts/check.sh runs its check on every change.
#
# All three snapshots are checked in, so the repository's performance
# trajectory is reviewable history rather than folklore.
#
# Usage: scripts/bench.sh [suite]           rewrite the snapshot(s)
#        scripts/bench.sh -check [suite]    fail if allocs/op (or
#                                           bytes/flow) regressed, or
#                                           the benchmark set drifted
#                                           (ns/op is machine-
#                                           dependent: informational)
#        suite: solver, ingest, serve, or all (default all)
#        make bench-snap / make bench-check   (aliases)
#
# Like check.sh this is offline and needs only the go toolchain; a
# full run takes a few minutes of benchmarking.

set -eu

cd "$(dirname "$0")/.."

mode=-update
case "${1:-}" in
-check)
    mode=-check
    shift
    ;;
-update)
    shift
    ;;
-*)
    echo "usage: scripts/bench.sh [-check|-update] [solver|ingest|serve|all]" >&2
    exit 2
    ;;
esac

suite="${1:-all}"
case "$suite" in
solver | ingest | serve | all) ;;
*)
    echo "usage: scripts/bench.sh [-check|-update] [solver|ingest|serve|all]" >&2
    exit 2
    ;;
esac

run_suite() {
    if [ "$1" = ingest ]; then
        echo "==> million-flow scale test (TDMD_SCALE=1)"
        TDMD_SCALE=1 go test -run TestScaleMillionFlows -count=1 .
    fi
    echo "==> benchsnap $mode -suite $1"
    go run ./cmd/benchsnap "$mode" -suite "$1"
    if [ "$mode" = -update ]; then
        echo "review the diff and commit the snapshot"
    fi
}

if [ "$suite" = all ]; then
    run_suite solver
    run_suite ingest
    run_suite serve
else
    run_suite "$suite"
fi
