#!/usr/bin/env bash
# Coverage census of the repository's benchmark: which functions under
# nshd/internal/ no workload runs.
#
#	scripts/census.sh        (make census)
#
# Builds ./benchmark with coverage over every nshd package into a temporary
# directory, runs each workload of BENCHMARK.json for one second untraced
# (--trace 0) and traced (--trace 1) with GOCOVERDIR set, and prints the
# `go tool covdata func` rows at 0.0 % under nshd/internal/, skipping the
# portable twins (*_noasm.go) that an asm build never compiles and the test
# helpers of tensortest. The runs start in the temporary directory, so their
# benchmark/out stays out of the tree. TestNoTestOnlyExports already fails on
# a function that no non-test file references, so a row here is reached by
# some entry point (cmd/, examples/, an experiment), but not by the
# benchmark: a candidate for a workload or for deletion, not a verdict.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
workloads=$(jq -r '.workloads[].name' BENCHMARK.json)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/cov"

go build -cover -coverpkg=nshd/... -o "$tmp/nshd-benchmark" ./benchmark
for w in $workloads; do
	for trace in 0 1; do
		echo "census: $w --trace $trace" >&2
		if ! (cd "$tmp" && GOCOVERDIR="$tmp/cov" ./nshd-benchmark --workload "$w" --seconds 1 --trace "$trace") >"$tmp/run.log" 2>&1; then
			cat "$tmp/run.log" >&2
			exit 1
		fi
	done
done
go tool covdata func -i="$tmp/cov" |
	awk '$NF == "0.0%" && $1 ~ /^nshd\/internal\// && $1 !~ /_noasm\.go:/ && $1 !~ /\/tensortest\//'
