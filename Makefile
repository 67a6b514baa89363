# Developer entry points. CI runs `make bench-smoke` plus a full
# `go test -race ./internal/... .` (which covers the race-parallel subset
# below). The repository's benchmark is khbench (`bash khbench/run.sh`,
# see khbench/README.md).

.PHONY: build test lint race race-parallel race-approx race-incr chaos bench-smoke

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
# EnginePool concurrent-load tests, the mid-peel cancellation property,
# the peel's interior loss-bound exactness shapes, ImproveLB's
# carrier-skip exactness (TestImproveLBCarrierSkipExact), the adaptive
# planner's top interval (TestAdaptivePlanTopIntervalSpansTwoValues) and
# the 1- and 2-worker work-counter goldens under the race detector. The
# core tests among them open the engine's schedule decision
# through its one test hook (forceParallel), so the concurrent paths run
# at any GOMAXPROCS. The hbfs pool tests (TestPool, the fan-out contract
# among them) cover the one publish/join seam every concurrent path shares.
race-parallel:
	go test -race -run 'TestParallel|TestEngine|TestCancel|TestLossBound|TestImproveLBCarrierSkipExact|TestAdaptivePlanTopIntervalSpansTwoValues|TestHLBUBCounterGolden|TestParallelWorkersMatchSequential|TestPool' ./internal/core/ ./internal/hbfs/ .

# race-approx is the CI smoke of the sampling-based approximate path: the
# worker-count determinism property, the cancellation property and the
# sampled-kernel pool equivalence under the race detector, repeated across
# a GOMAXPROCS matrix by CI.
race-approx:
	go test -race -run 'TestApprox|TestSampled|TestPoolSampled' ./internal/core/ ./internal/hbfs/ .

# race-incr is the CI smoke of the incremental-maintenance subsystem:
# the differential edit-stream property suite (bit-identical to
# from-scratch after every batch), the repair peel's interior loss bound
# on cut-vertex shapes (TestLossBoundRepairExact), the typed-edit and
# cancellation contracts, the CSR splice differential, the seed
# invalidation rule and the exactness of the maintainer's h-degree cache
# (TestSeedEditInvalidation, TestHDegreeCacheExact) and the /mutate
# serving surface, all under the race detector — repeated across a
# GOMAXPROCS matrix by CI.
race-incr:
	go test -race -run 'TestIncr|TestMaintainer|TestSplice|TestMutate|TestLossBound|TestSeedEditInvalidation|TestHDegreeCacheExact' ./internal/core/ ./internal/incr/ ./internal/graph/ ./cmd/khserve/ .

# chaos builds the module with the fault-injection sites compiled in and
# storms the engine pool and the serving daemon with seeded panics,
# delays and cancellations under the race detector (see README
# "Operations"). Deterministic per seed.
chaos:
	go build -tags faultinject ./...
	KHCORE_CHAOS_SEED=$(KHCORE_CHAOS_SEED) go test -race -tags faultinject \
		-run 'TestChaos|TestFaultInject|TestInjected|TestDraw|TestDelay|TestCancel|TestHits' \
		./internal/faultinject/ ./internal/core/ ./cmd/khserve/

# bench-smoke compiles and runs every benchmark in the module for exactly
# one iteration — fast enough for CI, and enough to keep them from rotting.
bench-smoke:
	go test -run '^$$' -bench . -benchtime 1x ./...
