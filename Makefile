GO ?= go

.PHONY: check vet build test race alloc staticcheck fuzz bench perf bench-train bench-serve perf-serve bench-quant perf-quant bench-router perf-router bench-compress perf-compress bench-latency perf-latency bench-fuse perf-fuse

# The full gate: what CI (and any PR) must keep green.
check: vet staticcheck build test race alloc

# Static analysis beyond go vet. The toolchain is not vendored and CI
# containers install nothing, so the target degrades to a skip notice when
# the binary is absent; developers with it on PATH get the full run. Pin
# honnef.co/go/tools/cmd/staticcheck@2025.1 when installing locally so
# finding sets are reproducible.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck: binary not on PATH; skipping (pin honnef.co/go/tools/cmd/staticcheck@2025.1 to enable)"; \
	fi

# Allocation-regression gate: the serving engine must stay heap-free in
# steady state (AllocsPerRun == 0) at chunk size and at batch 1, for both
# classifier kernels and every tail case — prepacked, rematerialized and
# planner-folded (TestEngineZeroAlloc, TestEngineZeroAllocBatch1) — and for
# the compressed int4/ternary predict path (TestEngineZeroAllocCompressed),
# the implicit-GEMM conv path, and the fused float and int8 extraction blocks
# (TestEngineZeroAllocBatch1ImplicitConv / ...FusedExtract / ...Int8Fused),
# and the depthwise / BatchNorm+ReLU6 / residual extractor of mobilenetv2
# (TestEngineZeroAllocMobileNet), and the float scorer's class strips at
# K = 100 (TestEngineZeroAllocWideClassMemory), and for the batch split's
# fan-out — sub-chunk parts of one chunk, even parts of three chunks and one,
# PredictInto and PartialInto (TestEngineZeroAllocSplit; the older gates call
# with 2 <= n <= chunk below the work floor, so they also pin that such a
# batch does not fan out); all ride the same -run prefix. So must the
# router's fan-out hot path (frame encode, partial decode,
# score merge; see TestRouterZeroAlloc) and the /predict JSON codec (decode of
# an 8-image body into the pooled scratch, response encode; see
# TestCodecZeroAlloc). The blocked-GEMM driver has its own gate under all of
# them, one product per B source on both builds (TestGemmDriverZeroAlloc).
alloc:
	$(GO) test -run TestGemmDriverZeroAlloc -count 1 ./internal/tensor/
	$(GO) test -run TestEngineZeroAlloc -count 1 ./internal/engine/
	$(GO) test -run 'TestRouterZeroAlloc|TestCodecZeroAlloc' -count 1 ./internal/serve/

# The second pass type-checks the portable build — every _noasm stub and the
# tests beside them — which tier-1 on amd64 never compiles.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detect the packages with hand-rolled parallelism (the serving front
# end's hammer tests live in internal/serve: TestBatcherHammer, and
# TestCodecHammer over the request scratch pool all three wire surfaces share;
# the engine's batch split against the fused blocks' tile fan-out is
# TestEngineSplitConcurrentCallers in internal/engine).
race:
	$(GO) test -race ./internal/parallel/... ./internal/tensor/... ./internal/nn/... ./internal/quant/... ./internal/hdc/... ./internal/hdlearn/... ./internal/engine/... ./internal/serve/...

# Fuzz the /predict JSON decoder against encoding/json (the differential
# oracle of TestDecodeInputsMatchesEncodingJSON) beyond the checked-in corpus
# under internal/serve/testdata/fuzz/, which `make test` already runs.
fuzz:
	$(GO) test -run xxx -fuzz FuzzDecodeInputs -fuzztime 30s ./internal/serve/

# Kernel microbenchmarks (tensor GEMMs, per-shape Conv2D backward, float
# class scoring, /predict JSON decode against encoding/json, Engine.PredictInto
# in images/s at the request shapes the batch split decides on) with
# allocation counts.
bench:
	$(GO) test -run xxx -bench . -benchmem ./internal/tensor/ ./internal/parallel/ ./internal/nn/ ./internal/hdlearn/ ./internal/serve/ ./internal/engine/

# Regenerate the machine-readable perf report (end-to-end serving + kernels
# + training path).
perf:
	$(GO) run ./cmd/nshd-bench -perf BENCH_PR3.json

# Re-run only the training-path benchmarks and diff them against the
# committed BENCH_PR3.json baseline (writes the fresh rows to a scratch file).
bench-train:
	$(GO) run ./cmd/nshd-bench -perf-train /tmp/nshd_bench_train.json -perf-baseline BENCH_PR3.json

# Re-run the serving load generator (micro-batched Batcher vs per-request
# Engine.Predict at concurrency 1/8/64) and diff against the committed
# BENCH_PR4.json baseline.
bench-serve:
	$(GO) run ./cmd/nshd-bench -perf-serve /tmp/nshd_bench_serve.json -perf-serve-baseline BENCH_PR4.json

# Regenerate the committed serving baseline.
perf-serve:
	$(GO) run ./cmd/nshd-bench -perf-serve BENCH_PR4.json

# Re-run the int8-vs-float engine benchmarks (quantized GEMM kernels,
# per-stage and end-to-end engine timings) and diff against the committed
# BENCH_PR5.json baseline.
bench-quant:
	$(GO) run ./cmd/nshd-bench -perf-quant /tmp/nshd_bench_quant.json -perf-quant-baseline BENCH_PR5.json

# Regenerate the committed quantization baseline.
perf-quant:
	$(GO) run ./cmd/nshd-bench -perf-quant BENCH_PR5.json

# Re-run the dimension-sharded router scaling benchmarks (S shard worker
# processes behind serve.Router, each duty-cycle-capped to emulate a
# fixed-capacity host) and diff against the committed BENCH_PR7.json
# baseline.
bench-router:
	$(GO) run ./cmd/nshd-bench -perf-router /tmp/nshd_bench_router.json -perf-router-baseline BENCH_PR7.json

# Regenerate the committed sharded-router baseline.
perf-router:
	$(GO) run ./cmd/nshd-bench -perf-router BENCH_PR7.json

# Re-run the post-training compression tradeoff benchmarks (bytes / tail
# latency / accuracy at keep ∈ {100,75,50,25}% × {int4, ternary}, the 1-point
# auto search and its remat composition) and diff against the committed
# BENCH_PR8.json baseline.
bench-compress:
	$(GO) run ./cmd/nshd-bench -perf-compress /tmp/nshd_bench_compress.json -perf-compress-baseline BENCH_PR8.json

# Regenerate the committed compression baseline.
perf-compress:
	$(GO) run ./cmd/nshd-bench -perf-compress BENCH_PR8.json

# Re-run the batch-1 serving-latency benchmarks (implicit-GEMM conv,
# prepacked projection strips, vectorized popcount scoring; p50/p99 for the
# prepacked and rematerialized tails × classifier kernel plus per-stage rows) and diff against the
# committed BENCH_PR9.json baseline.
bench-latency:
	$(GO) run ./cmd/nshd-bench -perf-latency /tmp/nshd_bench_latency.json -perf-latency-baseline BENCH_PR9.json

# Regenerate the committed batch-1 latency baseline.
perf-latency:
	$(GO) run ./cmd/nshd-bench -perf-latency BENCH_PR9.json

# Re-run the fused-vs-unfused extraction benchmarks (cache-resident fused
# conv→BN→ReLU→pool blocks; batch-1 e2e and extract-stage p50, float/packed/
# int8) and diff against the committed pre-fusion BENCH_PR9.json numbers.
bench-fuse:
	$(GO) run ./cmd/nshd-bench -perf-fuse /tmp/nshd_bench_fuse.json -perf-fuse-baseline BENCH_PR9.json

# Regenerate the committed fused-extraction baseline (diffed against the
# PR9 pre-fusion rows so the speedup is recorded in the file).
perf-fuse:
	$(GO) run ./cmd/nshd-bench -perf-fuse BENCH_PR10.json -perf-fuse-baseline BENCH_PR9.json
