#!/usr/bin/env bash
# Perf gate: the repository benchmark (perfbench) on this checkout
# against a base revision, both measured on this host. Run it from the
# repository root:
#
#   bash scripts/perf_gate.sh BASE      # or: make perf-gate BASE=<rev>
#
# BASE is checked out into a temporary git worktree, so each side builds
# its own perfbench through its own perfbench/run.sh. Every workload
# named in this checkout's BENCHMARK.json runs PAIRS interleaved pairs
# of RUN_SECONDS-second runs at seed 42, alternating which side goes
# first. The gate fails if a run exits nonzero or reports
# correct != true or failed > 0, or if the change's median of an
# end_to_end metric is worse than the base's median by more than that
# metric's bound, in its `better` direction. A metric the base does not
# report is checked for correctness only.
#
# The table goes to stdout and .perf_gate/table.txt; the raw result
# lines, tagged with side, workload and pair, go to
# .perf_gate/results.jsonl, and perfbench's stderr to
# .perf_gate/perfbench.log.
set -euo pipefail

PAIRS=5
RUN_SECONDS=2

base=${1:?usage: scripts/perf_gate.sh BASE}
rev=$(git rev-parse --verify "$base^{commit}")
root=$PWD
spec=$root/BENCHMARK.json
out=$root/.perf_gate
rm -rf "$out"
mkdir -p "$out"
log=$out/perfbench.log
results=$out/results.jsonl

wt=$(mktemp -d)
cleanup() {
	git worktree remove --force "$wt" 2>/dev/null || rm -rf "$wt"
	git worktree prune
}
trap cleanup EXIT
git worktree add --quiet --detach "$wt" "$rev"

# run SIDE DIR WORKLOAD PAIR makes one perfbench run from DIR, checks
# its result line and appends it, tagged, to results.jsonl. The change
# side must also report every end_to_end metric.
run() {
	local side=$1 dir=$2 wl=$3 pair=$4 line
	echo "== $side $wl pair $pair" >>"$log"
	if ! line=$(cd "$dir" && bash perfbench/run.sh --workload "$wl" \
		--seed 42 --seconds "$RUN_SECONDS" --trace 0 2>>"$log" | tail -n 1); then
		echo "perf gate: FAIL: perfbench exited nonzero ($side $wl pair $pair); see $log" >&2
		exit 1
	fi
	if ! jq -e --arg side "$side" --slurpfile spec "$spec" '
		.correct == true and .failed == 0 and
		($side == "base" or ([$spec[0].end_to_end[].name] - (.metrics | keys) == []))' \
		<<<"$line" >/dev/null; then
		echo "perf gate: FAIL: $side $wl pair $pair: $line" >&2
		exit 1
	fi
	jq -c --arg side "$side" --arg wl "$wl" --argjson pair "$pair" \
		'{side: $side, workload: $wl, pair: $pair} + .' <<<"$line" >>"$results"
}

for ((p = 1; p <= PAIRS; p++)); do
	for wl in $(jq -r '.workloads[].name' "$spec"); do
		if ((p % 2)); then
			run base "$wt" "$wl" "$p"
			run change "$root" "$wl" "$p"
		else
			run change "$root" "$wl" "$p"
			run base "$wt" "$wl" "$p"
		fi
	done
done

# One row per (workload, end_to_end metric) the base reports: the two
# medians, the change's relative delta, the bound and the verdict.
jq -r -s --slurpfile spec "$spec" '
	def median: sort | if length % 2 == 1 then .[length / 2 | floor]
		else (.[length / 2 - 1] + .[length / 2]) / 2 end;
	. as $runs
	| $spec[0].workloads[].name as $wl
	| $spec[0].end_to_end[] as $e
	| [$runs[] | select(.side == "base" and .workload == $wl) | .metrics[$e.name].value | numbers] as $b
	| select($b | length > 0)
	| ($b | median) as $base
	| ([$runs[] | select(.side == "change" and .workload == $wl) | .metrics[$e.name].value] | median) as $chg
	| ($chg / $base - 1) as $delta
	| (if $e.better == "lower" then $delta else -$delta end) as $worse
	| [$wl, $e.name, $base, $chg, $delta, $e.bound, (if $worse > $e.bound then "FAIL" else "ok" end)]
	| @tsv' "$results" |
	awk -F'\t' '
		BEGIN { printf "%-12s %-16s %12s %12s %9s %6s  %s\n", "workload", "metric", "base", "change", "delta", "bound", "verdict" }
		{ printf "%-12s %-16s %12.5g %12.5g %+8.1f%% %6.2f  %s\n", $1, $2, $3, $4, 100 * $5, $6, $7 }' |
	tee "$out/table.txt"

if grep -q 'FAIL$' "$out/table.txt"; then
	echo "perf gate: FAIL: the change is worse than $base ($rev) beyond a bound" >&2
	exit 1
fi
echo "perf gate: ok against $base ($rev), $PAIRS pairs of ${RUN_SECONDS}s per workload"
