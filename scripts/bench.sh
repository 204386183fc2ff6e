#!/usr/bin/env bash
# Perf-trajectory harness: runs the substrate and figure benchmarks and
# snapshots them into a committed BENCH_<pr>.json, so each perf PR leaves a
# comparable data point behind (PR 4 starts the trajectory). It checks no
# allocation budget: the Go allocation guards, run by the "Allocation
# guards" CI step, are the only allocation gate.
#
# Usage:
#   scripts/bench.sh snapshot   # full run, writes BENCH_${BENCH_PR:-7}.json
#
# Environment:
#   BENCH_PR     PR number stamped into the snapshot (default 7)
#   BENCH_COUNT  -count for the substrate benches (default 5)
#   BENCH_OUT    output path (default BENCH_${BENCH_PR}.json)
set -euo pipefail
cd "$(dirname "$0")/.."

mode=${1:-snapshot}
pr=${BENCH_PR:-7}
out=${BENCH_OUT:-BENCH_${pr}.json}

# The grid's warm-path micro-benches (a sweep re-walked against a filled
# cache): scenario-file load, spec hash, RepKey, disk-cache get and put.
GRID_BENCH='^Benchmark(LoadScenarioFile|SpecHash|RepKey|DiskCacheGet|DiskCachePut)$'

case "$mode" in
  snapshot)
    raw=$(mktemp)
    trap 'rm -f "$raw"' EXIT
    # Substrate microbenches: repeated samples for a stable min/median.
    go test -run '^$' -count "${BENCH_COUNT:-5}" -benchmem -timeout 60m \
      -bench 'BenchmarkChannelBankFrame|BenchmarkChannelBankQuery|BenchmarkChannelReplayCatchUp|BenchmarkFadingAdvance|BenchmarkModeSelection|BenchmarkCharismaFrame|BenchmarkObsOffFrame|BenchmarkScenarioRun|BenchmarkEngineScheduleEvery|BenchmarkSimulatedSecondAllProtocols|BenchmarkIdleWakeCell' \
      . | tee "$raw"
    go test -run '^$' -count "${BENCH_COUNT:-5}" -benchmem -timeout 60m \
      -bench 'BenchmarkReplicationSetup' ./internal/core | tee -a "$raw"
    go test -run '^$' -count "${BENCH_COUNT:-5}" -benchmem -timeout 60m \
      -bench 'BenchmarkStreamReseed|BenchmarkDeriveIndexed' ./internal/rng | tee -a "$raw"
    go test -run '^$' -count "${BENCH_COUNT:-5}" -benchmem -timeout 60m \
      -bench "$GRID_BENCH" ./internal/grid | tee -a "$raw"
    # Population-scaling family: B/station and ns/frame at 10⁴..10⁶.
    go test -run '^$' -count "${BENCH_COUNT:-5}" -benchmem -timeout 60m \
      -bench 'BenchmarkIdleCellPopulation' . | tee -a "$raw"
    # One representative panel per figure: the end-to-end workload shape.
    # A single iteration is already a full reduced-effort panel sweep;
    # three repeats give the snapshot a usable min/median instead of a
    # single noisy sample.
    go test -run '^$' -count 3 -benchtime 1x -benchmem -timeout 60m \
      -bench 'BenchmarkFig11a|BenchmarkFig12a|BenchmarkFig13a' . | tee -a "$raw"
    go run ./cmd/benchsnap -pr "$pr" -in "$raw" -out "$out"
    ;;
  *)
    echo "usage: scripts/bench.sh [snapshot]" >&2
    exit 2
    ;;
esac
