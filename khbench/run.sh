#!/usr/bin/env bash
# Builds the benchmark and the khserve daemon from this checkout's sources
# and runs one benchmark run. Run it from the repository root:
#
#   bash khbench/run.sh --workload workers-1 --seed 1 --seconds 50 --trace 0
#
# Everything it writes (Go build cache, binaries, run records, traces) goes
# under .bench_build in the current directory.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in here too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
  GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
(cd "$root/khbench" && go build -o "$out/khbench" . && go build -o "$out/khserve" repro/cmd/khserve) >&2
exec "$out/khbench" --khserve "$out/khserve" --out "$out" --commit "$commit" "$@"
