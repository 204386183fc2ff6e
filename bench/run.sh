#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository root
# and runs it from the root; every argument is passed to the benchmark.
#
#   bash bench/run.sh -workload panel-voice -seed 1 -seconds 12 -trace 0
#
# The Go build cache and temporary files stay under .bench_build/, so a run
# reads and writes nothing outside the checkout but the Go toolchain.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS=-buildvcs=false \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off PPROF_TMPDIR="$out/tmp" PPROF_BINARY_PATH="$out"
(cd "$root/bench" && go build -o "$out/bench" .)
cd "$root"
exec "$out/bench" -out "$out" "$@"
