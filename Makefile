# Developer entry points. CI runs `make bench-smoke` plus a full
# `go test -race ./internal/... .` (which covers the race-parallel subset
# below); the bench targets are how the BENCH_*.json records at the
# repository root are (re)generated.

# Recipes pipe `go test -bench` through tee; pipefail keeps a failing
# benchmark run from silently recording a truncated BENCH_*.json.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

# Benchmarks matched by `make bench` (anchored regexp) and how many times
# each is repeated for benchstat-quality variance.
BENCH ?= BenchmarkEngineDecompose$$
COUNT ?= 6
# Optional SNAP edge-list for the benchmark graph (empty = the synthetic
# Barabási–Albert default). Plumbed to the harness via KHCORE_BENCH_DATASET
# and recorded in the JSON output.
DATASET ?=

.PHONY: build test lint race race-parallel race-approx race-incr chaos bench bench-parallel bench-sampling bench-incr bench-smoke

# Chaos campaign seed; CI runs a matrix of seeds. A failing run names its
# seed — replay it here with KHCORE_CHAOS_SEED=<seed> make chaos.
KHCORE_CHAOS_SEED ?= 1

build:
	go build ./...

# lint is the pre-push check (CI's static-analysis job runs the same
# set): go vet, then khlint — the project's invariant analyzers over the
# whole module (see README "Invariants & static analysis"). staticcheck
# and govulncheck run when installed; CI installs and enforces both.
lint:
	go vet ./...
	go run ./cmd/khlint ./...
	@if command -v staticcheck >/dev/null; then staticcheck ./...; \
	else echo "staticcheck not installed; skipped (CI enforces it)"; fi
	@if command -v govulncheck >/dev/null; then govulncheck ./...; \
	else echo "govulncheck not installed; skipped (CI enforces it)"; fi

test: build
	go test ./...

race:
	go test -race ./internal/... .

# race-parallel is the CI smoke of the concurrent h-LB+UB path: the
# parallel-vs-sequential equivalence property, engine reuse, the
# EnginePool concurrent-load tests and the mid-peel cancellation property
# under the race detector. The core tests among them open the engine's
# schedule decision through its one test hook (forceParallel), so the
# concurrent paths run at any GOMAXPROCS.
race-parallel:
	go test -race -run 'TestParallel|TestEngine|TestCancel' ./internal/core/ .

# race-approx is the CI smoke of the sampling-based approximate path: the
# worker-count determinism property, the cancellation property and the
# sampled-kernel pool equivalence under the race detector, repeated across
# a GOMAXPROCS matrix by CI.
race-approx:
	go test -race -run 'TestApprox|TestSampled|TestPoolSampled' ./internal/core/ ./internal/hbfs/ .

# race-incr is the CI smoke of the incremental-maintenance subsystem:
# the differential edit-stream property suite (bit-identical to
# from-scratch after every batch), the typed-edit and cancellation
# contracts, the CSR splice differential and the /mutate serving surface,
# all under the race detector — repeated across a GOMAXPROCS matrix by CI.
race-incr:
	go test -race -run 'TestIncr|TestMaintainer|TestSplice|TestMutate' ./internal/core/ ./internal/graph/ ./cmd/khserve/ .

# chaos builds the module with the fault-injection sites compiled in and
# storms the engine pool and the serving daemon with seeded panics,
# delays and cancellations under the race detector (see README
# "Operations"). Deterministic per seed.
chaos:
	go build -tags faultinject ./...
	KHCORE_CHAOS_SEED=$(KHCORE_CHAOS_SEED) go test -race -tags faultinject \
		-run 'TestChaos|TestFaultInject|TestInjected|TestDraw|TestDelay|TestCancel|TestHits' \
		./internal/faultinject/ ./internal/core/ ./cmd/khserve/

# bench runs the kernel benchmark suite and records it into
# BENCH_kernels.json via cmd/benchjson. Drop a baseline run (same format,
# e.g. produced on the previous commit) at bench_baseline.txt to get a
# before/after summary with per-benchmark speedups.
bench:
	KHCORE_BENCH_DATASET=$(DATASET) go test -run '^$$' -bench '$(BENCH)' -benchmem -count $(COUNT) . | tee bench_current.txt
	@if [ -f bench_baseline.txt ]; then \
		go run ./cmd/benchjson -o BENCH_kernels.json -dataset '$(DATASET)' before=bench_baseline.txt after=bench_current.txt; \
	else \
		go run ./cmd/benchjson -o BENCH_kernels.json -dataset '$(DATASET)' after=bench_current.txt; \
	fi
	@echo wrote BENCH_kernels.json

# bench-parallel records the worker-scaling of the concurrent h-LB+UB
# partition peeling into BENCH_parallel.json: one sub-benchmark per worker
# count, summarized by cmd/benchjson's scaling section (speedup of every
# worker count over workers=1).
bench-parallel:
	KHCORE_BENCH_DATASET=$(DATASET) go test -run '^$$' -bench 'BenchmarkParallelHLBUB$$' -benchmem -count $(COUNT) . | tee bench_parallel.txt
	go run ./cmd/benchjson -o BENCH_parallel.json -dataset '$(DATASET)' \
		-note "BenchmarkParallelHLBUB: one warm engine per worker count, h=2, end-to-end h-LB+UB" \
		current=bench_parallel.txt
	@echo wrote BENCH_parallel.json

# bench-sampling records the accuracy/latency frontier of the
# sampling-based approximate decomposition into BENCH_sampling.json: per
# h, an exact h-LB+UB baseline sub-benchmark plus one sub-benchmark per
# epsilon carrying observed max/mean core-index error, the advertised
# bound and samples drawn as custom metrics. benchjson's sampling section
# computes each epsilon's speedup over the exact baseline.
bench-sampling:
	KHCORE_BENCH_DATASET=$(DATASET) go test -run '^$$' -bench 'BenchmarkApproxDecompose$$' -benchmem -count $(COUNT) -timeout 60m . | tee bench_sampling.txt
	go run ./cmd/benchjson -o BENCH_sampling.json -dataset '$(DATASET)' \
		-note "BenchmarkApproxDecompose: one warm single-worker engine, exact baseline + eps sweep, fixed seed 1" \
		current=bench_sampling.txt
	@echo wrote BENCH_sampling.json

# bench-incr records the amortized cost of incremental maintenance into
# BENCH_incr.json: per bench graph, a mode=repair sub-benchmark (localized
# repair, with region-size distribution, localized fraction and edits/sec
# as custom metrics) against a mode=rerun baseline (warm full
# re-decomposition per edit). benchjson's incr section computes the
# amortized speedup per graph.
bench-incr:
	go test -run '^$$' -bench 'BenchmarkIncrMaintain$$' -benchmem -count $(COUNT) . | tee bench_incr.txt
	go run ./cmd/benchjson -o BENCH_incr.json \
		-note "BenchmarkIncrMaintain: single-edge toggle stream, h=2, caveman graphs (disjoint dense blocks + ring bridges), repair vs rerun-per-edit" \
		current=bench_incr.txt
	@echo wrote BENCH_incr.json

# bench-smoke compiles and runs every benchmark in the module for exactly
# one iteration — fast enough for CI, and enough to keep them from rotting.
bench-smoke:
	go test -run '^$$' -bench . -benchtime 1x ./...
