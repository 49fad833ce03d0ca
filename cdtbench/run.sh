#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, passing
# every argument through. Run from the repository root:
#
#   bash cdtbench/run.sh --workload batch-plain --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and the run's model files and spans all
# stay under the build directory ($CARGO_TARGET_DIR, default .bench_build).
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOENV=off GOFLAGS=
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
(cd cdtbench && go build -o "$out/cdtbench" .)
exec "$out/cdtbench" --workdir "$out" "$@"
