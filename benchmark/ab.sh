#!/usr/bin/env bash
# A/B pairs of benchmark runs: a base revision against HEAD, with
# identical benchmark code and settings on both sides.
#
#   benchmark/ab.sh BASE_REV [PAIRS=10]
#
# Environment: TRACE (default 0; 1 compares the per-layer metrics), OUT
# (default benchmark/ab-results).
#
# Both revisions are exported with git archive into a temporary
# directory; HEAD's benchmark/ directory replaces the base's, so only
# the code under test differs. Every run lasts the benchmark's own
# -seconds default, BENCHMARK.json's run_seconds. Pair i runs every
# workload on both sides with seed i, alternating which side runs
# first. Each run appends one line {"workload", "pair", "seed",
# "result"} to OUT/base.jsonl or OUT/head.jsonl, and the comparison
# table is printed at the end (go run ./benchmark -compare
# OUT/base.jsonl OUT/head.jsonl).
set -euo pipefail
if [ $# -lt 1 ]; then
	echo "usage: $0 BASE_REV [PAIRS=10]" >&2
	exit 2
fi
base_rev=$1
pairs=${2:-10}
trace=${TRACE:-0}
root=$(git rev-parse --show-toplevel)
out=${OUT:-$root/benchmark/ab-results}
workloads="pingpong_small bulk_hybrid collectives8 incast_open"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
for side in base head; do
	rev=$base_rev
	[ "$side" = head ] && rev=HEAD
	mkdir "$tmp/$side"
	git -C "$root" archive "$rev" | tar -x -C "$tmp/$side"
done
rm -rf "$tmp/base/benchmark"
cp -R "$tmp/head/benchmark" "$tmp/base/benchmark"
for side in base head; do
	go -C "$tmp/$side/benchmark" build -o "$tmp/$side.bin" .
done

mkdir -p "$out"
: >"$out/base.jsonl"
: >"$out/head.jsonl"
# A run that fails still prints its result line, with correct false and
# its failed ops; one that prints none is recorded as incorrect.
# -compare counts both against the side.
run_side() { # side workload pair
	local line
	line=$("$tmp/$1.bin" -workload "$2" -seed "$3" -trace "$trace" | tail -n 1) || true
	if [ "${line:0:1}" != "{" ]; then
		echo "ab: $1 $2 pair $3 printed no result" >&2
		line='{"correct":false,"attempted":0,"failed":0,"metrics":{}}'
	fi
	printf '{"workload":"%s","pair":%d,"seed":%d,"result":%s}\n' "$2" "$3" "$3" "$line" >>"$out/$1.jsonl"
}
for ((i = 1; i <= pairs; i++)); do
	for w in $workloads; do
		if ((i % 2)); then
			run_side base "$w" "$i"
			run_side head "$w" "$i"
		else
			run_side head "$w" "$i"
			run_side base "$w" "$i"
		fi
	done
done
"$tmp/head.bin" -compare "$out/base.jsonl" "$out/head.jsonl"
