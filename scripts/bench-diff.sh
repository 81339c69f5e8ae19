#!/usr/bin/env bash
# A/B the working tree against REV with the repository's benchmark:
#
#	scripts/bench-diff.sh REV [WORKLOAD]        (make bench-diff REV=… [WORKLOAD=…])
#
# REV is cloned under /root/scratch (never inside the repo); both sides are
# built by their own benchmark/run.sh; each workload of BENCHMARK.json (or
# just WORKLOAD) then runs ten parent/change pairs — pair i with --seed i on
# both sides, the side that goes first alternating — and prints one row per
# end-to-end metric: the two medians, the parent's inter-quartile range, the
# pairs in which the change read better, and the bound. The verdict is WORSE
# when the change's median is worse than the parent's by more than the bound
# (or a larger share of operations failed), "unresolved" when the parent's own
# IQR is wider than the bound, "ok" otherwise; only WORSE fails the script.
# One more row per workload, model_version, counts the pairs in which both
# sides trained the same model to the bit (the hash of the class matrix each
# run records in benchmark/out/result_<workload>.json): "same 10/10" is what a
# change that claims to move no training bit must show. It is informational
# and always "ok".
# The clock here drifts between processes (see the verify skill), which is
# why the pairs are interleaved and why a single pair says nothing.
set -euo pipefail
rev=${1:?usage: bench-diff.sh REV [WORKLOAD]}
cd "$(git rev-parse --show-toplevel)"
sha=$(git rev-parse --verify "$rev^{commit}")
scratch=/root/scratch/bench-diff
parent=$scratch/$sha
runs=$scratch/runs-${sha:0:12}-$(date +%Y%m%dT%H%M%S)
pairs=10
seconds=$(jq -r .run_seconds BENCHMARK.json)
workloads=${2:-$(jq -r '.workloads[].name' BENCHMARK.json)}

mkdir -p "$runs"
if [ ! -d "$parent" ]; then
	git clone -q --no-checkout . "$parent"
	git -C "$parent" checkout -q --detach "$sha"
fi
for dir in "$parent" "$PWD"; do # -h: build, print the usage, run nothing
	(cd "$dir" && bash benchmark/run.sh -h >/dev/null 2>&1) || true
done

# run SIDE DIR WORKLOAD SEED appends the run's result object to SIDE's file and
# keeps the result file the run wrote. A run exits non-zero when an operation
# failed and still prints its result; a run that printed none stops the script.
run() {
	local line
	line=$(cd "$2" && bash benchmark/run.sh --workload "$3" --seed "$4" --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1) || true
	jq -ce 'select(.metrics)' <<<"$line" >>"$runs/$3.$1.jsonl" || {
		echo "bench-diff: $1 run of $3 (seed $4) printed no result: $line" >&2
		exit 2
	}
	cp "$2/benchmark/out/result_$3.json" "$runs/$3.$1.$4.json"
}

status=0
for w in $workloads; do
	for i in $(seq "$pairs"); do
		echo "bench-diff: $w pair $i/$pairs" >&2
		if [ $((i % 2)) = 1 ]; then
			run parent "$parent" "$w" "$i"
			run change "$PWD" "$w" "$i"
		else
			run change "$PWD" "$w" "$i"
			run parent "$parent" "$w" "$i"
		fi
	done
	table=$(jq -rn --arg w "$w" --slurpfile b BENCHMARK.json \
		--slurpfile p "$runs/$w.parent.jsonl" --slurpfile c "$runs/$w.change.jsonl" '
		def quantile(f): sort as $s | ((($s | length) - 1) * f) as $h | ($h | floor) as $i
			| $s[$i] + ($h - $i) * (($s[$i + 1] // $s[$i]) - $s[$i]);
		def share(r): (r | map(.failed) | add) / ([r | map(.attempted) | add, 1] | max);
		["workload", "metric", "parent", "change", "parent_iqr", "better", "bound", "verdict"],
		($b[0].end_to_end[] | . as $m
			| [$p[].metrics[$m.name].value] as $pv | [$c[].metrics[$m.name].value] as $cv
			| (if $m.better == "lower" then 1 else -1 end) as $sign
			| ($pv | quantile(0.5)) as $pm | ($cv | quantile(0.5)) as $cm
			| (($pv | quantile(0.75)) - ($pv | quantile(0.25))) as $iqr
			| [$w, $m.name, $pm, $cm, $iqr,
				"\([range($pv | length) | select(($cv[.] - $pv[.]) * $sign < 0)] | length)/\($pv | length)",
				$m.bound,
				(if ($cm - $pm) * $sign > $m.bound * $pm then "WORSE"
				 elif $iqr > $m.bound * $pm then "unresolved" else "ok" end)]),
		[$w, "failed_share", share($p), share($c), 0, "-", 0,
			(if share($c) > share($p) then "WORSE" else "ok" end)]
		| @tsv')
	awk -F'\t' 'NR == 1 { printf "%-15s %-15s %12s %12s %12s %10s %6s  %s\n", $1, $2, $3, $4, $5, $6, $7, $8; next }
		{ printf "%-15s %-15s %12.10g %12.10g %12.4g %10s %6s  %s\n", $1, $2, $3, $4, $5, $6, $7, $8 }' <<<"$table"
	same=0
	for i in $(seq "$pairs"); do
		if [ "$(jq -r .record.model_version "$runs/$w.parent.$i.json")" = "$(jq -r .record.model_version "$runs/$w.change.$i.json")" ]; then
			same=$((same + 1))
		fi
	done
	printf '%-15s %-15s %12s %12s %12s %10s %6s  %s\n' "$w" model_version - - - "same $same/$pairs" - ok
	if grep -q 'WORSE$' <<<"$table"; then status=1; fi
done
echo "bench-diff: raw results in $runs" >&2
exit $status
