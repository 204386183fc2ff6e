#!/usr/bin/env bash
# Perf gate: runs the repository benchmark (bench/run.sh, described by
# BENCHMARK.json) on the parent commit and on this checkout, 5 pairs per
# workload with the side that runs first alternating, and prints one row per
# workload and end-to-end metric: both medians, how much worse this checkout's
# is, and the metric's bound. It exits 1 when a run is not correct or prints
# no result, when this checkout fails a larger share of its attempted
# operations than the parent, or when a median is worse than the parent's by
# more than its bound. The parent is HEAD^, checked out into a git worktree,
# so commit first. Raw runs go to .bench_build/ab/runs.jsonl.
#
# After the pairs, each side makes one traced run (-trace 1) per workload,
# kept in .bench_build/ab/traced.jsonl. .bench_build/ab/summary.json then
# holds, per workload, each end-to-end metric's median and quartiles on both
# sides (the exclusive method bench/main.go uses) with the number of pairs
# this checkout won (ties count for neither side), and each side's traced
# per-layer metrics. Copied to BENCH_<n>.json at the root, it records one
# point of the perf trajectory. Needs bash, git and jq; takes no arguments.
# About 20 minutes on 2 vCPUs.
#
#   bash scripts/bench.sh
set -euo pipefail
cd "$(dirname "$0")/.."
ab=.bench_build/ab
parent=$ab/parent runs=$ab/runs.jsonl traced=$ab/traced.jsonl
rm -rf "$parent" && git worktree prune && mkdir -p "$ab" && : >"$runs" && : >"$traced"
git worktree add -q --detach "$parent" HEAD^
trap 'git worktree remove --force "$parent"' EXIT
# Gate the workloads both commits list, by HEAD's metrics and bounds.
workloads=$(jq -r --argjson p "$(git show HEAD^:BENCHMARK.json)" \
	'.workloads[].name | select(IN($p.workloads[].name))' BENCHMARK.json)
# bench_run SIDE WORKLOAD OUT FIELDS ARGS...: one run of the benchmark on
# SIDE, its result line appended to OUT with the given JSON FIELDS.
bench_run() {
	local side=$1 w=$2 out=$3 fields=$4 dir=. r
	shift 4
	[[ $side == head ]] || dir=$parent
	r=$(cd "$dir" && bash bench/run.sh -workload "$w" -seed 1 "$@" | tail -n 1) || true
	jq -nc --arg w "$w" --arg s "$side" --arg r "$r" --argjson f "$fields" \
		'{workload: $w, side: $s} + $f + (($r | fromjson?) // {correct: false})' >>"$out"
}
for w in $workloads; do
	for pair in 1 2 3 4 5; do
		sides="parent head"
		((pair % 2)) || sides="head parent"
		for side in $sides; do
			echo "bench.sh: $w pair $pair $side" >&2
			bench_run "$side" "$w" "$runs" "{\"pair\": $pair}"
		done
	done
done
for w in $workloads; do
	for side in parent head; do
		echo "bench.sh: $w traced $side" >&2
		bench_run "$side" "$w" "$traced" '{}' -trace 1
	done
done
report=$(jq -nr --argjson e2e "$(jq .end_to_end BENCHMARK.json)" '
	def med: select(length > 0) | sort | (length / 2 | floor) as $i
		| if length % 2 == 1 then .[$i] else (.[$i - 1] + .[$i]) / 2 end;
	def share: (map(.failed // 0) | add) / ([(map(.attempted // 0) | add), 1] | max);
	def r3: . * 1000 | round / 1000;
	"verdict\tworkload\tmetric\tparent\thead\tworse\tbound",
	([inputs] | group_by(.workload)[] | .[0].workload as $w
	| map(select(.side == "parent")) as $p | map(select(.side == "head")) as $h
	| (map(select(.correct != true)) | length) as $bad
	| (if $bad > 0 then "FAIL\t\($w)\t\($bad) runs not correct or without a result" else empty end),
	  (if ($h | share) > ($p | share) then "FAIL\t\($w)\tfailed share: parent \($p | share), head \($h | share)" else empty end),
	  ($e2e[] | . as $m
	  | ($p | map(.metrics[$m.name].value // empty) | med) as $a
	  | ($h | map(.metrics[$m.name].value // empty) | med) as $b
	  | (if $m.better == "lower" then $b / $a - 1 else 1 - $b / $a end) as $worse
	  | [if $worse > $m.bound then "FAIL" else "ok" end, $w, $m.name, ($a | r3), ($b | r3),
	     "\($worse * 1000 | round / 10)%", "\($m.bound * 100 | round)%"] | @tsv))' "$runs")
printf '%s\n' "$report"
jq -n --slurpfile runs "$runs" --slurpfile traced "$traced" --argjson e2e "$(jq .end_to_end BENCHMARK.json)" \
	--arg parent "$(git rev-parse HEAD^)" --arg head "$(git rev-parse HEAD)" \
	--arg host "$(nproc) vCPU $(grep -m1 'model name' /proc/cpuinfo | cut -d: -f2- | sed 's/^ *//'), $(go env GOOS)/$(go env GOARCH), $(go env GOVERSION)" '
	# Quartiles by the exclusive method, as quartiles() in bench/main.go.
	def quartiles: sort as $s | length as $n
		| def q($i): ([([($i * ($n + 1) / 4 | floor), 1] | max), $n - 1] | min) as $j
			| ($i * ($n + 1) - 4 * $j) as $d | ($s[$j - 1] * (4 - $d) + $s[$j] * $d) / 4;
		  (if $n % 2 == 1 then $s[$n / 2 | floor] else ($s[$n / 2 - 1] + $s[$n / 2]) / 2 end) as $m
		| if $n < 2 then {median: $m, q1: $m, q3: $m} else {median: $m, q1: q(1), q3: q(3)} end;
	def side($rs; $name): $rs | map(.metrics[$name].value // empty) | if length > 0 then quartiles else null end;
	{parent: $parent, head: $head, host: $host, seed: 1,
	 workloads: ($runs | group_by(.workload) | map(.[0].workload as $w | . as $rs | {key: $w, value: {
		runs: map({side, pair, correct, attempted, failed}),
		end_to_end: ($e2e | map(.name as $n | .better as $better | {key: $n, value: {
			unit, better, bound,
			parent: side($rs | map(select(.side == "parent")); $n),
			head: side($rs | map(select(.side == "head")); $n),
			pairs: ($rs | map(.pair) | unique | length),
			head_wins: ($rs | group_by(.pair) | map(
				(map(select(.side == "parent"))[0].metrics[$n].value) as $a
				| (map(select(.side == "head"))[0].metrics[$n].value) as $b
				| select($a != null and $b != null
					and (if $better == "lower" then $b < $a else $b > $a end))) | length)}}) | from_entries),
		traced: ($traced | map(select(.workload == $w)) | map({key: .side, value: {correct, metrics: (.metrics // {} | map_values(.value))}}) | from_entries)
	 }}) | from_entries)}' >"$ab/summary.json"
echo "bench.sh: wrote $ab/summary.json" >&2
if grep -q '^FAIL' <<<"$report"; then exit 1; fi
