GO ?= go

.PHONY: check fmt vet build test v3 race alloc staticcheck fuzz bench bench-diff census

# The full gate: what CI (and any PR) must keep green.
check: fmt vet staticcheck build test v3 race alloc

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
# classifier kernels and every tail case — sign words, again with the
# pipeline's float projection overwritten after Compile (the "remat" rows)
# and with F̂ raised to the pooled width (the "folded" rows;
# TestEngineZeroAlloc, TestEngineZeroAllocBatch1) — and for
# the implicit-GEMM conv path, and the fused extraction blocks
# (TestEngineZeroAllocBatch1ImplicitConv / ...FusedExtract),
# and the depthwise / BatchNorm+ReLU6 / residual extractor of mobilenetv2
# (TestEngineZeroAllocMobileNet), and the float scorer's class strips at
# K = 100 (TestEngineZeroAllocWideClassMemory), and for the batch split's
# fan-out — sub-chunk parts of one chunk, even parts of three chunks and one
# (TestEngineZeroAllocSplit; the older gates call with 2 <= n <= chunk below
# the work floor, so they also pin that such a batch does not fan out), and
# for a manifold FC over 1 MiB, whose product is split by columns on a
# prebound Call (TestEngineZeroAllocStreamedManifold); all ride the same -run
# prefix. So must the /predict JSON codec (decode of an
# 8-image body into the pooled scratch, response encode; see
# TestCodecZeroAlloc). The blocked-GEMM driver has its own gate under all of
# them, one product per B source on both builds (TestGemmDriverZeroAlloc).
# Where the 512-bit GEMM kernels are live the GatesAt256 tests repeat the
# driver's and the engine's gates on the 256-bit ones. Training has a bound,
# not a zero: once its first step has sized Fit's arena, a Trainer.Fit step of
# VGG16/4 at batch 32 takes at most 31 KB of heap in at most 245 allocations,
# and a step of MobileNetV2 or EfficientNet-B0 at most 113 or 111 KB in at
# most 880 or 850, about 10 % over their counts on two cores once the
# optimizers and the clip made one fan-out a sweep and the dense head's
# products took their panel buffers from the arena (TestFitStepHeap, which
# logs each step's bytes and allocations; 42 MB for VGG16/4 when every
# activation, gradient and workspace was fresh heap, and 349 896 178 and
# 482 226 952 B for the other two while nine of their layer types trained on
# the heap). So has the HD
# joint loop: once its first batch has sized the loop's
# arena, a batch of the `train` workload's retraining takes at most 64 KB
# (TestTrainOnFeaturesHeap, which logs the batch's bytes and allocations;
# 1.25 MB when U, the similarities, the encodes and the manifold FC's buffers
# were fresh heap every batch). Its GEMMs take their panel buffers from the
# arena, not from a sync.Pool, so the bound holds under the race detector too.
alloc:
	$(GO) test -run 'TestGemmDriverZeroAlloc|TestGemmGatesAt256/GemmDriverZeroAlloc' -count 1 ./internal/tensor/
	$(GO) test -run 'TestEngineZeroAlloc|TestEngineGatesAt256/ZeroAlloc' -count 1 ./internal/engine/
	$(GO) test -run TestCodecZeroAlloc -count 1 ./internal/serve/
	$(GO) test -run TestFitStepHeap -count 1 -v ./internal/cnn/
	$(GO) test -run TestTrainOnFeaturesHeap -count 1 -v ./internal/core/

# The second pass type-checks the portable build — every _noasm stub and the
# tests beside them — which tier-1 on amd64 never compiles.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The kernel, engine and layer gates once more under GOAMD64=v3, a level at
# which the Go spec lets the compiler fuse `x*y + s` into one FMA. The Go
# twins and tails that must round each product first (dotAsm's K mod 8 tail,
# the dot tile's, the elementwise twins, and gemmGoPart's AXPY — the ragged
# kernel's twin, which the conv layers' in-place products reach for their
# ragged rows and columns and, on the portable build, for everything) are
# pinned by float32 conversions. Go 1.24 lowers only math.FMA to VFMADD on
# amd64, so today this compiles the same float code as the default run; it is
# here for a toolchain that fuses, as the arm64 backend already does. The HD
# and training pins in internal/core (TestHDTrainingBitsPinned, and the joint
# loop against its reference) and internal/cnn (TestTrainingBitsPinned: three
# Pretrain steps of each headline model) run here too.
v3:
	GOAMD64=v3 $(GO) test ./internal/tensor/ ./internal/engine/ ./internal/nn/ ./internal/core/ ./internal/cnn/

# Race-detect the packages with hand-rolled parallelism (the serving front
# end's hammer tests live in internal/serve: TestBatcherHammer, and
# TestCodecHammer over the request scratch pool the JSON and binary codecs share;
# the engine's batch split against the fused blocks' tile fan-out is
# TestEngineSplitConcurrentCallers in internal/engine, the manifold FC's
# column split inside batch splits TestEngineStreamedManifoldConcurrentCallers
# there, and inside nn.Infer's parts TestInferSplitsStreamedLinear in
# internal/nn) and the training code that runs on them (the arena's training
# steps in internal/cnn, the HD retraining loop and the joint manifold loop in
# internal/core, and TestPipelineEvalConcurrent there: two goroutines on one
# pipeline's eval passes). The pool's own tests run ten times: whether a
# reused Call meets a help token left from an earlier Run depends on timing.
# So do the batcher's announcement bookkeeping tests (TestPendingSettlesOnEveryExit
# and the two linger tests beside it): whether an announced request is
# received by the flush loop before or after its handler returns depends on
# timing too.
race:
	$(GO) test -race -count=10 ./internal/parallel/...
	$(GO) test -race -count=10 -run 'TestPendingSettlesOnEveryExit|TestServerAloneFlushesAtOnce|TestDirectCallersStillLinger' ./internal/serve/
	$(GO) test -race ./internal/tensor/... ./internal/nn/... ./internal/quant/... ./internal/hdc/... ./internal/hdlearn/... ./internal/cnn/... ./internal/core/... ./internal/engine/... ./internal/serve/...

# Fuzz the untrusted byte surfaces beyond the checked-in corpora under
# internal/*/testdata/fuzz/, which `make test` already runs: the /predict JSON
# decoder against encoding/json (the differential oracle of
# TestDecodeInputsMatchesEncodingJSON), the binary request frame of /predict,
# and the model snapshot a serving process reloads (core.Load). One target at
# a time is all `go test -fuzz` takes.
fuzz:
	$(GO) test -run xxx -fuzz FuzzDecodeInputs -fuzztime 30s ./internal/serve/
	$(GO) test -run xxx -fuzz FuzzReadFrame -fuzztime 30s ./internal/serve/
	$(GO) test -run xxx -fuzz FuzzLoad -fuzztime 60s ./internal/core/

# Kernel microbenchmarks (the strip micro-kernels alone, the ragged-column
# kernel against its Go twin at 4, 8 and 11 columns, the conv training
# products read in place against the column products they replaced, and
# tensor GEMMs, panel
# products — prepacked strips against sign words at batch 1, 8 and 64, and at
# batch 1 with L2 evicted between calls — and conv layers at both kernel
# widths, the dot-kernel products at the
# manifold FC / Linear / similarity shapes at both widths with the tile shapes
# they were chosen from, MatMulTInto's column split against the row split at
# the dense head's shape (BenchmarkMatMulTSplit), the tail's float64 score
# fold, im2col per VGG stage shape, col2im on one stacked chunk per stage
# against the per-sample col2im it replaced, per-shape Conv2D forward and
# backward, the weight-gradient merges of a VGG16/4 step against the two-pass
# merge (BenchmarkMergeWeightGrad), the inverted residual's depthwise 3×3
# and 1×1 projection with their BatchNorm folded in (BenchmarkDepthwiseInfer,
# BenchmarkPointwiseInfer), max-pool in Forward and ForwardInfer, one
# steady-state Trainer.Fit step on its arena per zoo model — vgg16,
# mobilenetv2, effnetb0 (BenchmarkTrainStep) — one optimizer step at each
# kernel width and on the Go twins: Adam on the `train` manifold FC's
# [100, 2048] weights, SGD on VGG16/4's parameters, and ClipGradNorm's
# certified norm over them below and above maxNorm (BenchmarkOptimizerStep) —
# the `train` workload's HD
# retraining and teacher pass, Pipeline.ExtractFeatures on nn.Infer at
# vgg16@8 (32 and 96 px), vgg16@29, mobilenetv2@14 and effnetb0@6
# (BenchmarkExtractFeatures), float
# class scoring, /predict JSON decode against encoding/json, an open loop of
# 8-image JSON /predict requests with Poisson arrivals at 50 % and 90 % of the
# saturating rate over loopback HTTP, with its mean batch and p99 as custom
# metrics (BenchmarkServeOpenLoop),
# Engine.PredictInto in images/s at the request shapes the batch split decides
# on, on the MobileNet fixtures — offline_tail's, and cut 14 at 64 images —
# and at vgg16@29 from 1 and from 64 images) with allocation counts.
bench:
	$(GO) test -run xxx -bench . -benchmem ./internal/tensor/ ./internal/parallel/ ./internal/nn/ ./internal/cnn/ ./internal/core/ ./internal/hdlearn/ ./internal/serve/ ./internal/engine/

# Ten interleaved parent/change pairs of benchmark/run.sh per workload against
# REV (cloned under /root/scratch), one row per end-to-end metric: medians,
# the parent's inter-quartile range, "better in k/10", the BENCHMARK.json
# bound. Fails only beyond a bound or on a larger failed share.
bench-diff:
	bash scripts/bench-diff.sh $(REV) $(WORKLOAD)

# Functions under internal/ that no entry point runs: a coverage build of
# ./benchmark, every cmd/ and every examples/ main; every BENCHMARK.json
# workload for 1 s at -trace 0 and 1, nshd-bench -exp all at a tiny quick
# preset, each example, nshd-train, nshd-info, nshd-tsne and nshd-serve on
# the BaselineHD snapshot (a SIGHUP reload, one /predict, one GET /metrics);
# then the 0.0 % rows of the merged profile (the portable
# *_noasm.go twins and tensortest skipped). About 13 minutes on two cores. A
# row is reached by tests alone; see scripts/census.sh.
census:
	bash scripts/census.sh
