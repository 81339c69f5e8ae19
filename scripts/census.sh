#!/usr/bin/env bash
# Coverage census of every entry point: which functions under nshd/internal/
# nothing the repository ships runs.
#
#	scripts/census.sh        (make census)
#
# Builds ./benchmark, every cmd/ and every examples/ main with coverage over
# every nshd package into a temporary directory, runs them all with GOCOVERDIR
# pointing at one directory, and prints the `go tool covdata func` rows at
# 0.0 % under nshd/internal/, skipping the portable twins (*_noasm.go) that an
# asm build never compiles and the test helpers of tensortest. The runs:
#
#   - each workload of BENCHMARK.json for one second, untraced (--trace 0)
#     and traced (--trace 1);
#   - nshd-bench -exp all at the quick preset on 64 training and 32 test
#     images, one teacher and one HD epoch, D = 512;
#   - each examples/* main;
#   - nshd-train at the same sizes, normal and -baseline, each saving its
#     snapshot: nshd-info -pipeline reads the first;
#   - nshd-info plain and with -model;
#   - nshd-tsne;
#   - nshd-serve -model on the BaselineHD snapshot: one SIGHUP reload, one
#     binary /predict request and one GET /metrics, then SIGTERM.
#
# It costs about 13 minutes on a two-core box: quickstart takes 150 s,
# distillation 162 s and nshd-bench 126 s. Every run starts in the temporary
# directory, so teacher caches, CSVs and benchmark/out stay out of the tree.
# TestNoTestOnlyExports already fails on a function that no non-test file
# references, so a row here is reached by tests alone: delete it, or name the
# test that needs it.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
workloads=$(jq -r '.workloads[].name' BENCHMARK.json)
tmp=$(mktemp -d)
serve_pid=
cleanup() {
	if [ -n "$serve_pid" ]; then kill "$serve_pid" 2>/dev/null || true; fi
	rm -rf "$tmp"
}
trap cleanup EXIT
mkdir -p "$tmp/cov" "$tmp/bin"

go build -cover -coverpkg=nshd/... -o "$tmp/bin/" ./benchmark ./cmd/... ./examples/...

# run executes one binary from $tmp/bin in $tmp with coverage on, and stops
# the census with the binary's output when it fails.
run() {
	echo "census: $*" >&2
	local bin=$1
	shift
	if ! (cd "$tmp" && GOCOVERDIR="$tmp/cov" "$tmp/bin/$bin" "$@") >"$tmp/run.log" 2>&1; then
		cat "$tmp/run.log" >&2
		exit 1
	fi
}

for w in $workloads; do
	for trace in 0 1; do
		run benchmark --workload "$w" --seconds 1 --trace "$trace"
	done
done
tiny=(-train 64 -test 32 -pretrain-epochs 1 -hd-epochs 1 -d 512)
run nshd-bench -exp all -preset quick "${tiny[@]}"
for ex in examples/*/; do
	run "$(basename "$ex")"
done
run nshd-train "${tiny[@]}" -out "$tmp/pipeline.gob"
run nshd-train "${tiny[@]}" -baseline -out "$tmp/baseline.gob"
run nshd-info
run nshd-info -model vgg16
run nshd-info -pipeline "$tmp/pipeline.gob"
run nshd-tsne

# Serve the BaselineHD snapshot: reload it once with SIGHUP, then one
# /predict request — a binary frame of one all-zero 3×32×32 image (uint32 LE
# count, then float32 LE values) — and one GET /metrics.
echo "census: nshd-serve -model baseline.gob" >&2
addr=127.0.0.1:18181
(cd "$tmp" && GOCOVERDIR="$tmp/cov" exec "$tmp/bin/nshd-serve" -model "$tmp/baseline.gob" -addr "$addr") >"$tmp/serve.log" 2>&1 &
serve_pid=$!
for _ in $(seq 120); do
	curl -sf "http://$addr/healthz" >/dev/null && break
	sleep 0.5
done
fail() {
	echo "census: $*" >&2
	cat "$tmp/serve.log" >&2
	exit 1
}
kill -HUP "$serve_pid"
for _ in $(seq 120); do
	grep -q 'hot-swapped' "$tmp/serve.log" && break
	sleep 0.5
done
grep -q 'hot-swapped' "$tmp/serve.log" || fail "SIGHUP did not reload the snapshot"
{ printf '\001\000\000\000'; head -c $((3 * 32 * 32 * 4)) /dev/zero; } >"$tmp/req.bin"
curl -sf -X POST -H 'Content-Type: application/octet-stream' --data-binary @"$tmp/req.bin" "http://$addr/predict" >/dev/null ||
	fail "/predict failed"
curl -sf "http://$addr/metrics" >/dev/null || fail "GET /metrics failed"
kill -TERM "$serve_pid"
wait "$serve_pid"
serve_pid=

go tool covdata func -i="$tmp/cov" |
	awk '$NF == "0.0%" && $1 ~ /^nshd\/internal\// && $1 !~ /_noasm\.go:/ && $1 !~ /\/tensortest\//'
