GO ?= go

.PHONY: check fmt vet build test race alloc staticcheck fuzz bench bench-diff

# The full gate: what CI (and any PR) must keep green.
check: fmt vet staticcheck build test race alloc

# Formatting gate: any file gofmt would rewrite fails the check.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

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
# the implicit-GEMM conv path, and the fused extraction blocks
# (TestEngineZeroAllocBatch1ImplicitConv / ...FusedExtract),
# and the depthwise / BatchNorm+ReLU6 / residual extractor of mobilenetv2
# (TestEngineZeroAllocMobileNet), and the float scorer's class strips at
# K = 100 (TestEngineZeroAllocWideClassMemory), and for the batch split's
# fan-out — sub-chunk parts of one chunk, even parts of three chunks and one
# (TestEngineZeroAllocSplit; the older gates call with 2 <= n <= chunk below
# the work floor, so they also pin that such a batch does not fan out); all
# ride the same -run prefix. So must the /predict JSON codec (decode of an
# 8-image body into the pooled scratch, response encode; see
# TestCodecZeroAlloc). The blocked-GEMM driver has its own gate under all of
# them, one product per B source on both builds (TestGemmDriverZeroAlloc).
# Where the 512-bit GEMM kernels are live the GatesAt256 tests repeat the
# driver's and the engine's gates on the 256-bit ones.
alloc:
	$(GO) test -run 'TestGemmDriverZeroAlloc|TestGemmGatesAt256/GemmDriverZeroAlloc' -count 1 ./internal/tensor/
	$(GO) test -run 'TestEngineZeroAlloc|TestEngineGatesAt256/ZeroAlloc' -count 1 ./internal/engine/
	$(GO) test -run TestCodecZeroAlloc -count 1 ./internal/serve/

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
# TestCodecHammer over the request scratch pool the JSON and binary codecs share;
# the engine's batch split against the fused blocks' tile fan-out is
# TestEngineSplitConcurrentCallers in internal/engine).
race:
	$(GO) test -race ./internal/parallel/... ./internal/tensor/... ./internal/nn/... ./internal/quant/... ./internal/hdc/... ./internal/hdlearn/... ./internal/engine/... ./internal/serve/...

# Fuzz the untrusted byte surfaces of the serving front end beyond the
# checked-in corpora under internal/serve/testdata/fuzz/, which `make test`
# already runs: the /predict JSON decoder against encoding/json (the
# differential oracle of TestDecodeInputsMatchesEncodingJSON) and the binary
# request frame of /predict. One target at a time is all `go test -fuzz` takes.
fuzz:
	$(GO) test -run xxx -fuzz FuzzDecodeInputs -fuzztime 30s ./internal/serve/
	$(GO) test -run xxx -fuzz FuzzReadFrame -fuzztime 30s ./internal/serve/

# Kernel microbenchmarks (the strip micro-kernels alone and tensor GEMMs, panel
# products and conv layers at both kernel widths, im2col / col2im per VGG stage shape,
# per-shape Conv2D forward and backward, max-pool in both modes, one VGG16
# training step, the `train` workload's HD retraining and teacher pass, float
# class scoring, /predict JSON decode against encoding/json,
# Engine.PredictInto in images/s at the request shapes the batch split decides
# on) with allocation counts.
bench:
	$(GO) test -run xxx -bench . -benchmem ./internal/tensor/ ./internal/parallel/ ./internal/nn/ ./internal/cnn/ ./internal/core/ ./internal/hdlearn/ ./internal/serve/ ./internal/engine/

# Ten interleaved parent/change pairs of benchmark/run.sh per workload against
# REV (cloned under /root/scratch), one row per end-to-end metric: medians,
# the parent's inter-quartile range, "better in k/10", the BENCHMARK.json
# bound. Fails only beyond a bound or on a larger failed share.
bench-diff:
	bash scripts/bench-diff.sh $(REV) $(WORKLOAD)
