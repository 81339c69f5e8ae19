#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source in
# the checkout it is started from and runs it with the driver's arguments.
# The go tool's build cache and temporary files are kept under .bench_build/
# in the checkout, so nothing is read or written outside it; the first build
# in a fresh checkout therefore compiles the standard library too.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
rev=$(git rev-parse HEAD 2>/dev/null) || rev=unknown
if [ "$rev" != unknown ] && [ -n "$(git status --porcelain 2>/dev/null)" ]; then
	rev="$rev+dirty"
fi
go build -buildvcs=false -ldflags "-X main.gitRevision=$rev" -o "$build/nshd-benchmark" ./benchmark
exec "$build/nshd-benchmark" "$@"
