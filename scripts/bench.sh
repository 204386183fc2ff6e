#!/usr/bin/env bash
# Perf-trajectory harness: runs the substrate and figure benchmarks and
# snapshots them into a committed BENCH_<pr>.json, so each perf PR leaves a
# comparable data point behind (PR 4 starts the trajectory).
#
# Usage:
#   scripts/bench.sh snapshot   # full run, writes BENCH_${BENCH_PR:-4}.json
#   scripts/bench.sh smoke      # CI: 1 iteration + zero-alloc guard, no file
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

# The hot paths that must stay allocation-free: the channel plane's frame
# advance, its memoized queries and batched replay, mode selection, the
# frame clock's recurring driver,
# the CHARISMA frame path over an active cell (request free list, PR 5),
# the idle-wake cycle over a 10⁵-station lazy cell (timer wheel, PR 6),
# the warm-arena replication setup (PR 7), and the frame path with a live
# obs.SimCounters read per frame (PR 8 — observability must be free).
# StreamReseed is the in-place jump-ahead reseed of a per-station stream.
ZERO_ALLOC='^(ChannelBankFrame|ChannelBankQuery|ChannelReplayCatchUp|FadingAdvance|ModeSelection|EngineScheduleEvery|CharismaFrame|IdleWakeCell|ReplicationSetup|ObsOffFrame|StreamReseed)$'

# The grid's warm-path micro-benches (a sweep re-walked against a filled
# cache): scenario-file load, spec hash, RepKey, disk-cache get and put.
GRID_BENCH='^Benchmark(LoadScenarioFile|SpecHash|RepKey|DiskCacheGet|DiskCachePut)$'

# Population-scaling ceiling: resident heap per idle station at 10⁵
# stations (the same budget TestMillionStationMemoryBudget pins at 10⁶).
MAX_B_PER_STATION='^IdleCellPopulation/n=100000$:B/station:64'

case "$mode" in
  smoke)
    raw=$(mktemp)
    trap 'rm -f "$raw"' EXIT
    go test -run '^$' -benchtime 1x -benchmem -timeout 10m \
      -bench 'BenchmarkChannelBank|BenchmarkChannelReplayCatchUp|BenchmarkFadingAdvance|BenchmarkModeSelection|BenchmarkEngineScheduleEvery|BenchmarkCharismaFrame|BenchmarkObsOffFrame|BenchmarkIdleWakeCell' \
      . | tee "$raw"
    # The 10⁵ population point runs separately: its sub-bench pattern would
    # otherwise filter the flat benchmarks above.
    go test -run '^$' -benchtime 1x -benchmem -timeout 10m \
      -bench 'BenchmarkIdleCellPopulation/n=100000$' . | tee -a "$raw"
    # Warm-arena replication setup (white-box bench in internal/core).
    go test -run '^$' -benchtime 1x -benchmem -timeout 10m \
      -bench 'BenchmarkReplicationSetup' ./internal/core | tee -a "$raw"
    # Per-station stream seeding (white-box benches in internal/rng).
    go test -run '^$' -benchtime 1x -benchmem -timeout 10m \
      -bench 'BenchmarkStreamReseed|BenchmarkDeriveIndexed' ./internal/rng | tee -a "$raw"
    # The grid's warm path: scenario load, spec hashing, RepKey, disk tier.
    go test -run '^$' -benchtime 1x -benchmem -timeout 10m \
      -bench "$GRID_BENCH" ./internal/grid | tee -a "$raw"
    go run ./cmd/benchsnap -in "$raw" -assert-zero-allocs "$ZERO_ALLOC" \
      -assert-max-metric "$MAX_B_PER_STATION"
    ;;
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
    go run ./cmd/benchsnap -pr "$pr" -in "$raw" -out "$out" \
      -assert-zero-allocs "$ZERO_ALLOC" -assert-max-metric "$MAX_B_PER_STATION"
    ;;
  *)
    echo "usage: scripts/bench.sh [snapshot|smoke]" >&2
    exit 2
    ;;
esac
