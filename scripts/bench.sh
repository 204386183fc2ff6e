#!/usr/bin/env bash
# Perf gate: runs the repository benchmark (bench/run.sh, described by
# BENCHMARK.json) on the parent commit and on this checkout, 5 pairs per
# workload with the side that runs first alternating, and prints one row per
# workload and end-to-end metric: both medians, how much worse this checkout's
# is, and the metric's bound. It exits 1 when a run is not correct or prints
# no result, when this checkout fails a larger share of its attempted
# operations than the parent, or when a median is worse than the parent's by
# more than its bound. The parent is HEAD^, checked out into a git worktree,
# so commit first. Raw runs go to .bench_build/ab/runs.jsonl. Needs bash, git
# and jq; takes no arguments. About 15 minutes on 2 vCPUs.
#
#   bash scripts/bench.sh
set -euo pipefail
cd "$(dirname "$0")/.."
ab=.bench_build/ab
parent=$ab/parent runs=$ab/runs.jsonl
rm -rf "$parent" && git worktree prune && mkdir -p "$ab" && : >"$runs"
git worktree add -q --detach "$parent" HEAD^
trap 'git worktree remove --force "$parent"' EXIT
# Gate the workloads both commits list, by HEAD's metrics and bounds.
workloads=$(jq -r --argjson p "$(git show HEAD^:BENCHMARK.json)" \
	'.workloads[].name | select(IN($p.workloads[].name))' BENCHMARK.json)
for w in $workloads; do
	for pair in 1 2 3 4 5; do
		sides="parent head"
		((pair % 2)) || sides="head parent"
		for side in $sides; do
			echo "bench.sh: $w pair $pair $side" >&2
			dir=.
			[[ $side == head ]] || dir=$parent
			r=$(cd "$dir" && bash bench/run.sh -workload "$w" -seed 1 | tail -n 1) || true
			jq -nc --arg w "$w" --arg s "$side" --arg r "$r" \
				'{workload: $w, side: $s} + (($r | fromjson?) // {correct: false})' >>"$runs"
		done
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
if grep -q '^FAIL' <<<"$report"; then exit 1; fi
