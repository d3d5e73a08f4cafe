# Convenience aliases for the verification gate. scripts/check.sh is
# the source of truth; `make check` is the one command to run before
# sending a change.

.PHONY: check build test race lint lint-json locklint fuzz bench bench-snap bench-check bench-ingest scale cancelhammer servehammer obs

check:
	scripts/check.sh

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# The full analyzer suite (six per-package rules plus the interprocedural
# solverpurity/detorder/goleak/mapstate/guardedby/lockorder/holdblock and the
# compiler escape-analysis diff against the checked-in escape baseline)
# — identical to the tdmdlint step in scripts/check.sh.
lint:
	go run ./cmd/tdmdlint -escape-baseline escape.baseline.json ./...

# The concurrency-discipline analyzers alone (guarded-by inference,
# lock ordering, no-blocking-under-lock), plus the lock-order graph
# dumped as deterministic DOT — the same artifact CI archives.
locklint:
	go run ./cmd/tdmdlint -only guardedby,lockorder,holdblock ./...
	go run ./cmd/tdmdlint -only lockorder -lockgraph lockgraph.dot ./...

# Machine-readable findings as JSON (deterministic, position-sorted).
lint-json:
	go run ./cmd/tdmdlint -escape-baseline escape.baseline.json -json ./...

# Repeated race-enabled run of the solver-cancellation tests (the
# DESIGN.md "Cancellation & anytime contract" suite).
cancelhammer:
	go test -tags tdmdinvariant -run Cancel -race -count=5 ./internal/placement/

# Every Fuzz* target in the module (auto-discovered), 30s each;
# scripts/check.sh runs the same script with 5s per target.
fuzz:
	scripts/fuzz.sh 30s

# Paired full-recompute vs incremental (netsim.State) benchmarks; see
# EXPERIMENTS.md "Incremental evaluation".
bench:
	go test -run='^$$' -bench=FullVsIncremental -benchmem .

# Benchmark snapshots (BENCH_solver.json + BENCH_ingest.json +
# BENCH_serve.json): bench-snap rewrites all three from a fresh run,
# bench-check gates allocs/op — and, for the ingest suite, bytes/flow —
# against them. The serve suite is two single-request rows (a plan-cache
# hit and a fresh solve) and also runs in scripts/check.sh (DESIGN.md
# "Allocation discipline", "Streaming ingestion" and "Service
# architecture").
bench-snap:
	scripts/bench.sh -update all

bench-check:
	scripts/bench.sh -check all

# The ingestion suite alone: the million-flow scale test plus the
# BenchmarkIngest* rows gated against BENCH_ingest.json.
bench-ingest:
	scripts/bench.sh -check ingest

# The million-flow end-to-end scale run (stream from disk, decode,
# solve with the lazy greedy) without any benchmarking.
scale:
	TDMD_SCALE=1 go test -run TestScaleMillionFlows -count=1 -v .

# Observability: race-enabled observer/metrics tests plus the paired
# off/counting/metrics overhead benchmark guarding the ≤2% hot-path
# budget (DESIGN.md "Observability").
obs:
	go test -race ./internal/obs/
	go test -race -run 'Observer|Metrics|Cache' ./internal/placement/ ./internal/netsim/ ./internal/serve/
	go test -run='^$$' -bench=ObserverOverhead -benchmem ./internal/placement/

# Repeated race-enabled run of the service admission tests (worker
# pool saturation, coalescing, cache replay, jobs, drain) — identical
# to the serve hammer step in scripts/check.sh.
servehammer:
	go test -run Serve -race -count=5 ./internal/serve/ ./cmd/tdmdserve/
